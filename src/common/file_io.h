// Whole-file reads and fsync helpers shared by the snapshot and op-log
// code. Every error text names the caller's file kind (`what`: "snapshot",
// "op-log") and the path, so a failure says which file of which kind.
#ifndef SKL_COMMON_FILE_IO_H_
#define SKL_COMMON_FILE_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace skl {

/// The whole file in one sized read. NotFound "cannot open <what> file
/// <path>" when it cannot be opened, Internal "error reading <what> file
/// <path>" when the read comes up short.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           const std::string& what);

/// Flushes a written file to stable storage where the platform supports
/// it. Internal "cannot open <what> file <path> for sync" or "cannot sync
/// <what> file <path>".
Status SyncFile(const std::string& path, const std::string& what);

/// Flushes a directory's entries ("" is the working directory): a create
/// or rename is only durable once this runs after it. Internal "cannot
/// open <what> directory <dir> for sync" or "cannot sync <what> directory
/// <dir>".
Status SyncDir(const std::string& dir, const std::string& what);

}  // namespace skl

#endif  // SKL_COMMON_FILE_IO_H_
