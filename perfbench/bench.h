// Shared pieces of the repository benchmark (perfbench/): command-line
// arguments, the result record every workload fills, sample statistics,
// the input digest and the wall clock.
#ifndef SKL_PERFBENCH_BENCH_H_
#define SKL_PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the run's scratch files (op-log, snapshots); created and
  /// removed by the runner.
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
  /// Test hook: flips one expected answer, so a correct program must fail
  /// the run. Exists to prove the oracle check is live.
  bool corrupt_oracle = false;
  /// Test hook: 0 = reader clients run until the clock ends; otherwise each
  /// sends exactly this many requests, which makes the counts exact.
  uint64_t requests = 0;
  /// Reader connections; the workloads are defined with 2 (1 beside the
  /// writer on ingest_mixed). Lowered only by the benchmark's own tests.
  unsigned clients = 2;
};

/// Prints the first few failed operations to standard error.
void ReportFailure(const char* what);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict, the operation
/// counts behind failed/attempted, and the metrics of the requested kind
/// (end-to-end when untraced, per-layer when traced).
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts one checked operation; a failure also clears `correct`.
  void Count(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      ReportFailure(what);
    }
  }
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process: every thread, user and system. On kernels
/// that account steal time, time a virtual CPU spent preempted by the host
/// is not in it.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// FNV-1a over the generated input stream: equal seeds give equal digests.
class Digest {
 public:
  void Bytes(const void* data, size_t size);
  void U64(uint64_t value) { Bytes(&value, sizeof(value)); }
  void Str(std::string_view s) { Bytes(s.data(), s.size()); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

/// splitmix64 of (seed, stream, index): independent sub-seeds per input.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index = 0);

/// One line of the run record on standard output ("key: value").
void Note(std::string_view key, const std::string& value);

// The workloads (workloads.cc). Each exits the process with a message on a
// set-up failure; failures while measuring are counted in the Outcome.
Outcome RunReadHot(const Args& args);
Outcome RunScanCold(const Args& args);
Outcome RunIngestMixed(const Args& args);

}  // namespace perfbench

#endif  // SKL_PERFBENCH_BENCH_H_
