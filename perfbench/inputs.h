// Seeded, pre-generated inputs of the three workloads, and the oracle that
// gives every query its expected answer from the definition: reachability
// in the generated run graph (src/graph/algorithms), and for data items the
// run graph plus its data catalog. Nothing here asks the service under test.
//
// All inputs are made before any clock starts; the digest covers the run
// graphs, catalogs, query keys, batches and the write schedule, so equal
// seeds give equal digests.
#ifndef SKL_PERFBENCH_INPUTS_H_
#define SKL_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/common/bitset.h"
#include "src/core/data_provenance.h"
#include "src/core/provenance_service.h"
#include "src/workflow/run.h"
#include "src/workflow/spec_delta.h"
#include "src/workflow/specification.h"

namespace perfbench {

/// Workload sizes. They were fixed while making the runs steady on a
/// 4-core VM; see the comments at each use.
struct Sizes {
  // Runs of ~1800 vertices keep the count of nonempty plan-tree nodes
  // (n_T^+, 570..930 on QBLAST) inside one power of two, so label_bits_max
  // does not step between seeds on read_hot and ingest_mixed. On scan_cold's
  // 512 synthetic runs it does on some seeds (37 bits on most, 40 on 2 of
  // seeds 601-605): one step is 0.081 of the median, inside its 0.1 bound.
  // read_hot (and the preload + reader of ingest_mixed).
  static constexpr uint32_t kHotRuns = 16;
  static constexpr uint32_t kHotRunVertices = 1800;
  static constexpr uint32_t kHotKeys = 4096;
  static constexpr double kHotZipfS = 0.99;
  static constexpr double kHotDependsOnShare = 0.10;
  static constexpr uint32_t kHotStreamLength = 1u << 16;
  // scan_cold.
  static constexpr uint32_t kColdRuns = 512;
  static constexpr uint32_t kColdRunVertices = 1800;
  static constexpr uint32_t kColdBatches = 512;
  static constexpr uint32_t kColdReplayBatches = 32;
  static constexpr uint32_t kBatchPairs = 4096;
  // ingest_mixed.
  static constexpr uint32_t kIngestPoolRuns = 32;
  static constexpr uint32_t kIngestRunVertices = 500;
  // The write schedule is fixed work, sized from the run's time budget so
  // the writer finishes in about half of it today: a fixed op count
  // keeps restart_s (replay of the whole op-log) comparable between
  // commits, where a timed writer would make a faster write path replay a
  // longer log.
  static constexpr uint32_t kIngestWritesPerSecond = 192;
  static constexpr uint32_t kRemoveImportEvery = 16;
  static constexpr uint32_t kDeltaPairEvery = 256;
  static constexpr uint32_t kChecksPerRun = 8;
};

/// The definition of reachability on one run: closure[u] holds every vertex
/// u reaches (u itself included).
struct Oracle {
  std::vector<skl::DynamicBitset> closure;

  explicit Oracle(const skl::Run& run);
  bool Reaches(skl::VertexId u, skl::VertexId v) const {
    return closure[u].Test(v);
  }
  /// x depends on x_from iff some reader of x_from reaches x's writer.
  bool DependsOn(const skl::DataCatalog& catalog, skl::DataItemId x,
                 skl::DataItemId x_from) const;
};

enum class QueryKind : uint8_t { kReaches, kDependsOn };

/// One single query with its expected answer. `run` indexes the workload's
/// run list, not a RunId.
struct Query {
  uint32_t run = 0;
  QueryKind kind = QueryKind::kReaches;
  uint32_t a = 0;
  uint32_t b = 0;
  bool expected = false;
};

struct Batch {
  uint32_t run = 0;
  std::vector<skl::VertexPair> pairs;
  std::vector<bool> expected;
};

/// read_hot's runs and Zipf-skewed single-query streams, one per client.
struct HotInputs {
  skl::Specification spec;
  std::vector<skl::Run> runs;
  std::vector<skl::DataCatalog> catalogs;
  std::vector<Query> keys;                    ///< the distinct keys
  std::vector<std::vector<uint32_t>> streams;  ///< per client, into keys
};

/// scan_cold's uniform batches. The runs themselves only live long enough
/// to be labeled into the snapshot the workload restarts from.
struct ColdInputs {
  std::vector<Batch> batches;          ///< sent over the wire
  std::vector<Batch> replay_batches;   ///< traced in-process replays only
  std::vector<std::vector<uint32_t>> streams;  ///< per client, into batches
};

enum class WriteKind : uint8_t { kAddRun, kRemoveImport, kDeltaPair };

struct WriteOp {
  WriteKind kind = WriteKind::kAddRun;
  uint32_t item = 0;  ///< pool run (add), blob source run (import), delta
};

/// ingest_mixed's writes on top of a HotInputs preload and reader stream.
struct IngestInputs {
  HotInputs hot;
  std::vector<skl::Run> pool;               ///< runs sent with AddRun
  std::vector<std::vector<Query>> checks;   ///< per pool run, for recovery
  std::vector<std::vector<Query>> hot_checks;  ///< per preloaded run
  std::vector<skl::SpecDelta> deltas;       ///< add/remove module pairs
  std::vector<WriteOp> schedule;
};

HotInputs MakeHotInputs(uint64_t seed, unsigned clients, Digest* digest);
/// Generates scan_cold's runs and batches; `sink` receives the runs in
/// chunks (to label them) and may discard them afterwards.
ColdInputs MakeColdInputs(
    uint64_t seed, unsigned clients, Digest* digest,
    const std::function<void(std::vector<skl::Run>)>& sink);
IngestInputs MakeIngestInputs(uint64_t seed, double seconds, Digest* digest);

/// The synthetic specification of Section 8.2 used by scan_cold.
skl::Specification ColdSpec();

}  // namespace perfbench

#endif  // SKL_PERFBENCH_INPUTS_H_
