#include "src/common/file_io.h"

#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace skl {

namespace {

#if defined(__unix__) || defined(__APPLE__)
Status FsyncPath(const char* path, int flags, const std::string& what) {
  int fd = ::open(path, flags);
  if (fd < 0) return Status::Internal("cannot open " + what + " for sync");
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Status::Internal("cannot sync " + what);
  return Status::OK();
}
#endif

}  // namespace

Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path,
                                           const std::string& what) {
  // One bulk read: copying the stream a byte at a time cost several times
  // the snapshot parse itself, and its speed moved with the loop's code
  // layout.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("cannot open " + what + " file " + path);
  const std::streamsize size = in.tellg();
  std::vector<uint8_t> bytes(size > 0 ? static_cast<size_t>(size) : 0);
  in.seekg(0);
  if (size < 0 || !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::Internal("error reading " + what + " file " + path);
  }
  return bytes;
}

Status SyncFile(const std::string& path, const std::string& what) {
#if defined(__unix__) || defined(__APPLE__)
  return FsyncPath(path.c_str(), O_RDONLY, what + " file " + path);
#else
  (void)path;
  (void)what;
  return Status::OK();
#endif
}

Status SyncDir(const std::string& dir, const std::string& what) {
#if defined(__unix__) || defined(__APPLE__)
  const std::string d = dir.empty() ? "." : dir;
  return FsyncPath(d.c_str(), O_RDONLY | O_DIRECTORY,
                   what + " directory " + d);
#else
  (void)dir;
  (void)what;
  return Status::OK();
#endif
}

}  // namespace skl
