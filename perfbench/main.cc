// skl_perfbench: the repository benchmark's runner (perfbench/run.py builds
// and runs it).
//
//   skl_perfbench --workload read_hot|scan_cold|ingest_mixed --seed N
//                 --seconds S --trace 0|1 --work-dir DIR [--spans-out FILE]
//
// Prints the run record, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every checked answer was correct.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

void Note(std::string_view key, const std::string& value) {
  std::printf("%.*s: %s\n", static_cast<int>(key.size()), key.data(),
              value.c_str());
  std::fflush(stdout);
}

void ReportFailure(const char* what) {
  static std::atomic<int> reported{0};
  if (reported.fetch_add(1) < 10) {
    std::fprintf(stderr, "perfbench: failed: %s\n", what);
  }
}

namespace {

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

/// Moves the whole process, every thread together, to the next of the CPUs
/// it may use every kRotatePeriod, until destroyed, so that no request is
/// split across CPUs and a run's CPU time is an average over all of them.
///
/// The gated times are CPU times. On a VM, waking a thread on another
/// virtual CPU costs a hypervisor interrupt whose price follows the host's
/// load: spread over the CPUs, one build's read_hot CPU time per request
/// read 34.6-47.3 us on runs a minute apart. Confined to one CPU it read
/// 19-25 us, but which CPU mattered: at the same moment one virtual CPU
/// gave 19.0 us and the other three 23.6-25.0, and which one was fast
/// changed from minute to minute. Rotating keeps the first gain and
/// averages the second effect out.
class CpuRotation {
 public:
  explicit CpuRotation(std::vector<int> cpus) : cpus_(std::move(cpus)) {
    MoveAll(cpus_[0]);
    thread_ = std::thread([this] { Loop(); });
  }
  ~CpuRotation() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  static constexpr std::chrono::milliseconds kRotatePeriod{100};

  /// The CPUs this process may use, or none if they cannot be read.
  static std::vector<int> AllowedCpus() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    return cpus;
  }

 private:
  /// Threads started later inherit their creator's CPU, so they join the
  /// next move at the latest. A thread that exits meanwhile is skipped.
  static void MoveAll(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    std::error_code ec;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      sched_setaffinity(tid, sizeof(one), &one);
    }
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t k = 1;
         !cv_.wait_for(lock, kRotatePeriod, [&] { return stop_; }); ++k) {
      MoveAll(cpus_[k % cpus_.size()]);
    }
  }

  const std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Refuses builds whose numbers would come from a different program: a
/// non-Release build type, assertions on, or sanitizers (however injected,
/// e.g. through CMAKE_CXX_FLAGS).
bool Preflight() {
  const std::string build_type = SKL_PERFBENCH_BUILD_TYPE;
  bool instrumented = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  instrumented = true;
#endif
  bool asserts = false;
#ifndef NDEBUG
  asserts = true;
#endif
  Note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  Note("cpu", CpuModel());
  Note("compiler", SKL_PERFBENCH_COMPILER);
  Note("build_type", build_type + (instrumented ? " with sanitizers" : "") +
                         (asserts ? " with assertions" : ""));
  Note("thread_budget",
       "2 client connections (1 reader + 1 writer on ingest_mixed), "
       "server num_threads=2 num_io_threads=1, service num_threads=2");
  if (build_type != "Release" || instrumented || asserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure this build; build with "
                 "CMAKE_BUILD_TYPE=Release, NDEBUG and no sanitizer\n");
    return false;
  }
  return true;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: skl_perfbench --workload "
               "read_hot|scan_cold|ingest_mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--spans-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_work_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value after a flag");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
      if (!args.trace && std::strcmp(value, "0") != 0) {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--work-dir") {
      args.work_dir = value;
      have_work_dir = true;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--requests") {
      args.requests = std::strtoull(value, &end, 10);
    } else if (flag == "--clients") {
      args.clients = static_cast<unsigned>(std::strtoul(value, &end, 10));
      if (args.clients < 1 || args.clients > 2) Usage("--clients is 1 or 2");
    } else {
      Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') Usage("malformed number");
  }
  if (!have_workload || !have_work_dir) Usage("missing --workload/--work-dir");
  return args;
}

void PrintResult(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Outcome (*run)(const Args&) = nullptr;
  if (args.workload == "read_hot") run = RunReadHot;
  if (args.workload == "scan_cold") run = RunScanCold;
  if (args.workload == "ingest_mixed") run = RunIngestMixed;
  if (run == nullptr) Usage("unknown workload");
  if (!Preflight()) return 1;
  const std::vector<int> cpus = CpuRotation::AllowedCpus();
  if (cpus.empty()) {
    std::fprintf(stderr, "perfbench: cannot read the CPUs this run may use\n");
    return 1;
  }
  CpuRotation rotation(cpus);
  Note("cpu_placement",
       "every thread on one CPU at a time, moving through " +
           std::to_string(cpus.size()) + " CPUs every " +
           std::to_string(CpuRotation::kRotatePeriod.count()) + " ms");
  Note("workload", args.workload + " seed " + std::to_string(args.seed) +
                       (args.trace ? " traced" : " untraced"));
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 args.work_dir.c_str());
    return 1;
  }
  const Outcome out = run(args);
  std::filesystem::remove_all(args.work_dir, ec);
  PrintResult(out);
  return out.correct && out.failed == 0 ? 0 : 1;
}
