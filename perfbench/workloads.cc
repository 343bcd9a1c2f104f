// The three workloads. Each starts a ProvenanceServer in this process on
// loopback and drives it through ProvenanceClient connections in a closed
// loop: a caller sends its next request only after the answer to the last
// one arrived, as audit tools and UIs do. Every answer is checked against
// the oracle (inputs.h).
//
//   read_hot      2 readers, Zipf-skewed single Reaches/DependsOn on a few
//                 thousand keys over 16 preloaded QBLAST runs: the fixed
//                 per-request cost dominates and the result cache hits.
//   scan_cold     2 readers, 4096-pair ReachesBatch requests, each on a run
//                 drawn uniformly from 512 synthetic runs restored from a
//                 snapshot: per-pair work dominates and the cache misses.
//   ingest_mixed  1 writer (AddRun of run XML; every 16th write a RemoveRun
//                 plus an ImportRun; every 256th a spec-delta pair) against
//                 an attached op-log, beside 1 reader sending read_hot's mix,
//                 16 queries per write; ends with a RecoverPrimary restart.
//
// Times that gate a change are CPU times of the whole process (client
// connections and server together; main.cc keeps all its threads on one
// CPU at a time), not wall-clock times. On a shared VM the wall clock
// follows the host's other tenants: the same build read 21 us and 67 us
// single-query p50 a few hours apart, with 20% of the CPU time stolen by the
// host during the slow runs, and ten runs of one build spread up to 0.95 of
// their median. The wall-clock figures are printed in the run record.
//
// Untraced runs report the end-to-end metrics. Traced runs measure half the
// time untraced (the cache figures come from it) and half with tracing
// switched on and off in alternate slices (trace.overhead_frac compares the
// two), replay sampled requests against each layer (ledger.h) and report
// per-layer metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/inputs.h"
#include "perfbench/ledger.h"
#include "src/skl.h"

namespace perfbench {

namespace {

using skl::MsgType;

// Thread budget for a 4-core machine: at most 2 client threads, 2 query
// workers and 1 reactor thread, so the figures measure the program rather
// than the scheduler.
constexpr unsigned kServerThreads = 2;
constexpr unsigned kServerIoThreads = 1;
constexpr unsigned kServiceThreads = 2;

// Set-up and restart are each timed in two rounds some seconds apart
// (set-up before and after the measured traffic; restart before and after
// that second set-up round), every round lasting a fixed time with a
// minimum count; the metric is the median over both rounds, so one burst of
// interference moves a few samples rather than the result.
constexpr int kSetupRepeats = 11;
constexpr double kSetupRoundSeconds = 3;
constexpr int kRestartRepeats = 6;
constexpr double kRestartRoundSeconds = 1.5;
constexpr uint64_t kWarmupRequests = 2000;  // per reader, before any clock
// ingest_mixed's reader sends this many queries per write op (see Pacer).
constexpr uint64_t kReadsPerWrite = 16;
// Traced runs replay every n-th request of each kind.
constexpr uint64_t kReadSampleEvery = 16;
constexpr uint64_t kBatchSampleEvery = 4;
constexpr uint64_t kWriteSampleEvery = 8;
// The served op-log does not fsync each append. On a shared VM disk the
// fsync latency swung 2-4x between runs (AddRun p90 5.2-13 ms with fsync
// against 2.8-6.2 ms without, interleaved runs), more than any regression
// bound can hold; the append itself, framing and replay are still measured.
// The traced run's replay log keeps the production default (fsync on) and
// reports the fsync time as a layer of its own.
constexpr bool kOpLogFsync = false;
// Traced phases switch tracing on and off every kTraceToggleNs.
constexpr int64_t kTraceToggleNs = 50'000'000;
// The durability check reads back at most this many ingested runs.
constexpr size_t kDurabilitySampleRuns = 64;

[[noreturn]] void Die(const std::string& what, const skl::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Must(skl::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).value();
}

void Must(const skl::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}

double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

skl::ProvenanceService::Options ServiceOptions() {
  skl::ProvenanceService::Options options;
  options.num_threads = kServiceThreads;
  return options;
}

std::unique_ptr<skl::ProvenanceServer> StartServer(
    skl::ProvenanceService service, skl::OpLog* oplog) {
  skl::ProvenanceServer::Options options;
  options.num_threads = kServerThreads;
  options.num_io_threads = kServerIoThreads;
  options.oplog = oplog;
  return Must(skl::ProvenanceServer::Start(std::move(service), options),
              "server start");
}

skl::ProvenanceClient Connect(const skl::ProvenanceServer& server) {
  return Must(skl::ProvenanceClient::Connect("127.0.0.1", server.port()),
              "connect");
}

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t RequestId(unsigned client, uint64_t i) {
  return (static_cast<uint64_t>(client + 1) << 40) | (i + 1);
}

/// Wall-clock and CPU time of one set-up or restart.
struct Timing {
  double wall_s = 0;
  double cpu_s = 0;
};

/// Reads both clocks at construction; Stop() gives the time since.
class Stopwatch {
 public:
  Timing Stop() const {
    return {(NowNs() - wall_ns_) / 1e9, (CpuNs() - cpu_ns_) / 1e9};
  }

 private:
  int64_t wall_ns_ = NowNs();
  int64_t cpu_ns_ = CpuNs();
};

/// Median of one clock's readings.
double MedianOf(const std::vector<Timing>& timings, double Timing::*clock) {
  std::vector<double> values;
  for (const Timing& t : timings) values.push_back(t.*clock);
  return Median(std::move(values));
}

/// One round: calls `fn` (which returns its Timing) for `seconds`, at
/// least `min_repeats` times; appends the times to `samples`.
template <typename Fn>
void TimedRound(const Fn& fn, int min_repeats, double seconds,
                std::vector<Timing>* samples) {
  const int64_t end_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int rep = 0; rep < min_repeats || NowNs() < end_ns; ++rep) {
    samples->push_back(fn());
  }
}

template <typename Fn>
void SetupRound(const Fn& setup, std::vector<Timing>* setup_s) {
  TimedRound(setup, kSetupRepeats, kSetupRoundSeconds, setup_s);
}

template <typename Fn>
void RestartRound(const Fn& restart, std::vector<Timing>* restart_s) {
  TimedRound(restart, kRestartRepeats, kRestartRoundSeconds, restart_s);
}

// ------------------------------------------------------------- phases --

/// Grants ingest_mixed's reader kReadsPerWrite queries per write op the
/// writer starts. A phase then does the same work whatever the relative
/// speed of reads and writes, so its CPU time per write compares across
/// runs; a free-running reader would send more queries per write whenever
/// writes slowed down.
class Pacer {
 public:
  void Grant(uint64_t reads) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      granted_ += reads;
    }
    cv_.notify_one();
  }
  /// No more grants: the reader sends what it was granted, then stops.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
  }
  /// Blocks until read `i` (from 0) is granted; false if it never will be.
  bool Await(uint64_t i) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return i < granted_ || closed_; });
    return i < granted_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t granted_ = 0;
  bool closed_ = false;
};

/// When a closed-loop caller stops: after an exact number of requests (test
/// hook), when its pacer has no more grants, or at the deadline.
struct Phase {
  int64_t start_ns = 0;
  int64_t deadline_ns = 0;
  uint64_t requests = 0;
  Pacer* pacer = nullptr;
  bool traced = false;

  bool Done(uint64_t i) const {
    if (requests > 0 && i >= requests) return true;
    if (pacer != nullptr) return !pacer->Await(i);
    return requests == 0 && NowNs() >= deadline_ns;
  }
  /// Whether a request sent now is traced: a traced phase traces every
  /// other slice, so traced and untraced requests meet the same drift
  /// (cache warming, a growing registry).
  bool TracedNow() const {
    return traced && ((NowNs() - start_ns) / kTraceToggleNs) % 2 == 1;
  }
};

Phase TimedPhase(const Args& args, double seconds, bool traced) {
  Phase phase;
  phase.start_ns = NowNs();
  phase.deadline_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  phase.requests = args.requests;
  phase.traced = traced;
  return phase;
}

/// A sampled call waiting for the server's histograms before layout.
struct PendingCall {
  TracedCall call;
  std::optional<MsgType> op;  ///< adds queue/execute spans when set
  std::vector<Piece> exec_children;
};

/// Roundtrips in buckets 1% wide (from 0.1 µs to about 40 minutes). A
/// run records every request, and histograms keep the memory for that
/// fixed, so the peak RSS does not grow with throughput.
class LatencyLog {
 public:
  void Add(double us) {
    const double b = us > kMinUs ? std::log(us / kMinUs) / std::log(kBase) : 0;
    ++counts_[std::min(static_cast<size_t>(b), kBuckets - 1)];
    ++total_;
  }
  void Merge(const LatencyLog& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }
  uint64_t total() const { return total_; }
  /// Nearest-rank quantile, placed linearly inside its bucket.
  double Quantile(double q) const {
    if (total_ == 0) return 0;
    const auto rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))));
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      if (seen + counts_[b] >= rank) {
        const double lo = kMinUs * std::pow(kBase, static_cast<double>(b));
        const double within =
            (static_cast<double>(rank - seen) - 0.5) / counts_[b];
        return lo + lo * (kBase - 1) * within;
      }
      seen += counts_[b];
    }
    return 0;
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kBase = 1.01;
  static constexpr size_t kBuckets = 2400;
  std::array<uint32_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

// A phase is recorded in kSlices equal time slices of its planned length.
constexpr size_t kSlices = 40;

/// What closed-loop callers saw in one phase.
struct CallerStats {
  std::vector<LatencyLog> slices = std::vector<LatencyLog>(kSlices);
  std::vector<LatencyLog> by_tracing = std::vector<LatencyLog>(2);  ///< off, on
  std::vector<uint64_t> slice_pairs = std::vector<uint64_t>(kSlices, 0);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pairs = 0;  ///< answered query pairs
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t slice_ns = 1;
  int64_t cpu_ns = 0;  ///< process CPU time over the phase
  std::vector<PendingCall> calls;
  std::vector<double> reply_bytes_per_pair;

  void Begin(const Phase& phase) {
    start_ns = NowNs();
    const int64_t planned =
        phase.deadline_ns > start_ns ? phase.deadline_ns - start_ns : 1000000000;
    slice_ns = std::max<int64_t>(planned / kSlices, 1);
  }
  void Count(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      ReportFailure(what);
    }
  }
  void Record(int64_t t0, int64_t t1, uint32_t answered, bool traced) {
    const auto i = std::min<size_t>(
        static_cast<size_t>(std::max<int64_t>(t1 - start_ns, 0) / slice_ns),
        kSlices - 1);
    slices[i].Add((t1 - t0) / 1e3);
    by_tracing[traced ? 1 : 0].Add((t1 - t0) / 1e3);
    slice_pairs[i] += answered;
    pairs += answered;
  }
  /// Callers of one phase share its slices.
  void Merge(CallerStats other) {
    for (size_t i = 0; i < kSlices; ++i) {
      slices[i].Merge(other.slices[i]);
      slice_pairs[i] += other.slice_pairs[i];
    }
    for (size_t i = 0; i < 2; ++i) by_tracing[i].Merge(other.by_tracing[i]);
    attempted += other.attempted;
    failed += other.failed;
    pairs += other.pairs;
    start_ns = start_ns == 0 ? other.start_ns
                             : std::min(start_ns, other.start_ns);
    slice_ns = other.slice_ns;
    end_ns = std::max(end_ns, other.end_ns);
    std::move(other.calls.begin(), other.calls.end(),
              std::back_inserter(calls));
    reply_bytes_per_pair.insert(reply_bytes_per_pair.end(),
                                other.reply_bytes_per_pair.begin(),
                                other.reply_bytes_per_pair.end());
  }
  uint64_t Count() const {
    uint64_t n = 0;
    for (const LatencyLog& l : slices) n += l.total();
    return n;
  }
  LatencyLog All() const {
    LatencyLog all;
    for (const LatencyLog& l : slices) all.Merge(l);
    return all;
  }
  double Seconds() const { return (end_ns - start_ns) / 1e9; }
  /// Slices the phase actually used.
  size_t UsedSlices() const {
    const int64_t used = (end_ns - start_ns + slice_ns - 1) / slice_ns;
    return std::clamp<size_t>(static_cast<size_t>(std::max<int64_t>(used, 1)),
                              1, kSlices);
  }
};

// Interference from outside the program comes in bursts. The end-to-end
// figures are therefore medians over up to kWindows consecutive windows of
// a run, so one burst moves one window rather than the result.
constexpr size_t kWindows = 10;

/// Quantile q in each window, with as many windows as leave about 50
/// samples beyond q in each; median over the windows.
double WindowedQuantile(const CallerStats& stats, double q) {
  const auto min_size = static_cast<uint64_t>(std::ceil(50 / (1 - q)));
  const size_t used = stats.UsedSlices();
  const size_t k = std::clamp<size_t>(
      std::min<size_t>(stats.Count() / min_size, used), 1, kWindows);
  std::vector<double> per_window;
  for (size_t w = 0; w < k; ++w) {
    LatencyLog window;
    for (size_t i = w * used / k; i < (w + 1) * used / k; ++i) {
      window.Merge(stats.slices[i]);
    }
    if (window.total() > 0) per_window.push_back(window.Quantile(q));
  }
  return Median(std::move(per_window));
}

/// Answered pairs per second in each of up to kWindows windows; median.
double WindowedRate(const CallerStats& stats) {
  const size_t used = stats.UsedSlices();
  const size_t k = std::min(kWindows, used);
  std::vector<double> rate;
  for (size_t w = 0; w < k; ++w) {
    const size_t from = w * used / k, to = (w + 1) * used / k;
    uint64_t pairs = 0;
    for (size_t i = from; i < to; ++i) pairs += stats.slice_pairs[i];
    const int64_t begin = stats.start_ns + static_cast<int64_t>(from) * stats.slice_ns;
    const int64_t end = std::min<int64_t>(
        stats.end_ns, stats.start_ns + static_cast<int64_t>(to) * stats.slice_ns);
    if (end > begin) rate.push_back(pairs / ((end - begin) / 1e9));
  }
  return Median(std::move(rate));
}

void Absorb(const CallerStats& stats, Outcome* out) {
  out->attempted += stats.attempted;
  out->failed += stats.failed;
  if (stats.failed > 0) out->correct = false;
}

/// Runs `fn(index, phase, &stats)` on `n` threads and merges what they saw.
template <typename Fn>
CallerStats RunCallers(unsigned n, const Phase& phase, const Fn& fn) {
  std::vector<CallerStats> per(n);
  std::vector<std::thread> threads;
  const int64_t cpu0 = CpuNs();
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      per[i].Begin(phase);
      fn(i, phase, &per[i]);
      per[i].end_ns = NowNs();
    });
  }
  for (std::thread& t : threads) t.join();
  CallerStats merged;
  merged.cpu_ns = CpuNs() - cpu0;
  for (CallerStats& s : per) merged.Merge(std::move(s));
  return merged;
}

// --------------------------------------------------------- replays --

struct CodecReplay {
  int64_t encode_ns = 0;
  int64_t decode_ns = 0;
  size_t reply_bytes = 0;
  bool ok = false;
};

/// EncodeFrame and FrameDecoder on the request and reply frames of a call.
CodecReplay ReplayCodec(MsgType type, uint64_t request_id,
                        std::vector<uint8_t> request_payload,
                        std::vector<uint8_t> reply_payload) {
  skl::Frame request;
  request.type = type;
  request.request_id = request_id;
  request.payload = std::move(request_payload);
  skl::Frame reply;
  reply.type = MsgType::kReply;
  reply.request_id = request_id;
  reply.payload = std::move(reply_payload);
  std::vector<uint8_t> request_bytes, reply_bytes;
  CodecReplay r;
  const int64_t t0 = NowNs();
  skl::EncodeFrame(request, &request_bytes);
  skl::EncodeFrame(reply, &reply_bytes);
  const int64_t t1 = NowNs();
  skl::FrameDecoder decoder;
  decoder.Feed(request_bytes);
  auto a = decoder.Next();
  decoder.Feed(reply_bytes);
  auto b = decoder.Next();
  const int64_t t2 = NowNs();
  r.encode_ns = t1 - t0;
  r.decode_ns = t2 - t1;
  r.reply_bytes = reply_bytes.size();
  r.ok = a.ok() && a->has_value() && b.ok() && b->has_value();
  return r;
}

std::vector<Piece> CodecPieces(const CodecReplay& codec) {
  return {{"net.protocol.encode", codec.encode_ns, {}},
          {"net.protocol.decode", codec.decode_ns, {}}};
}

int64_t MedianNs(const skl::LatencyHistogram* h) {
  if (h == nullptr || h->Count() == 0) return 0;
  return static_cast<int64_t>(h->Quantile(0.5) * 1000);
}

/// Completes the sampled calls with the server's queue and execute
/// histograms (whole µs, median per opcode) and lays them out.
void LayOut(const skl::ProvenanceServer& server,
            std::vector<PendingCall>* calls, Ledger* ledger) {
  for (PendingCall& pc : *calls) {
    if (pc.op) {
      pc.call.pieces.push_back({"net.server.queue_wait",
                                MedianNs(server.queue_wait_histogram(*pc.op)),
                                {}});
      pc.call.pieces.push_back({"net.server.execute",
                                MedianNs(server.execute_histogram(*pc.op)),
                                std::move(pc.exec_children)});
    } else {
      for (Piece& p : pc.exec_children) pc.call.pieces.push_back(std::move(p));
    }
    ledger->Add(pc.call);
  }
  calls->clear();
}

// ----------------------------------------------------------- layers --

/// Every per-layer metric; a layer the workload does not exercise stays 0.
struct Layers {
  double call_ns = 0;
  double encode_ns = 0;
  double decode_ns = 0;
  double reply_bytes_per_pair = 0;
  double unaccounted_ns = 0;
  double epoll_wakeups_per_request = 0;
  double service_reaches_ns = 0;
  double service_batch_ns_per_pair = 0;
  double cache_hit_ratio = 0;
  double cache_lookups_per_request = 0;
  double preload_ms = 0;
  double scheme_build_ms = 0;
  double add_run_ms = 0;
  double apply_delta_ms = 0;
  double construct_plan_ms = 0;
  double from_plan_ms = 0;
  double xml_write_ms = 0;
  double xml_read_ms = 0;
  double oplog_append_p50_us = 0;
  double oplog_append_p99_us = 0;
  double oplog_fsync_p50_us = 0;
  double oplog_fsync_p99_us = 0;
  double oplog_bytes_per_run = 0;
  double recover_primary_ms = 0;
  double snapshot_load_ms = 0;
  double snapshot_save_ms = 0;
  double snapshot_bytes = 0;
  double overhead_frac = 0;
  std::vector<Metric> server;  ///< queue/execute histogram quantiles
};

void CaptureServer(const skl::ProvenanceServer& server, Layers* layers) {
  const std::pair<MsgType, const char*> ops[] = {
      {MsgType::kReaches, "reaches"},
      {MsgType::kReachesBatch, "reaches_batch"},
      {MsgType::kAddRun, "add_run"}};
  for (const auto& [op, label] : ops) {
    const skl::LatencyHistogram* q = server.queue_wait_histogram(op);
    const skl::LatencyHistogram* e = server.execute_histogram(op);
    for (const auto& [name, h] : {std::pair{"queue_wait_us", q},
                                  std::pair{"execute_us", e}}) {
      const bool empty = h == nullptr || h->Count() == 0;
      for (const auto& [tag, quantile] :
           {std::pair{"p50", 0.5}, std::pair{"p99", 0.99}}) {
        layers->server.push_back(
            {std::string("net.server.") + name + "." + tag + "." + label,
             empty ? 0.0 : h->Quantile(quantile), "us"});
      }
    }
  }
  uint64_t requests = 0;
  for (uint8_t op = 1; op < 64; ++op) {
    if (!skl::IsRequestType(op)) continue;
    const skl::LatencyHistogram* e =
        server.execute_histogram(static_cast<MsgType>(op));
    if (e != nullptr) requests += e->Count();
  }
  if (requests > 0) {
    layers->epoll_wakeups_per_request =
        static_cast<double>(server.reactor_stats().epoll_wakeups) / requests;
  }
}

double MedianOf(const std::map<std::string, std::vector<double>>& by_name,
                const std::string& name) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0.0 : Median(it->second);
}

/// Reads the ledger into the layer metrics; `roots` are the workload's
/// primary calls, whose self time is the unaccounted remainder.
void ReadLedger(const Ledger& ledger, const std::vector<std::string>& roots,
                Layers* l) {
  const auto self = ledger.SelfTimesByName();
  const auto dur = ledger.DurationsByName();
  std::vector<double> root_self, root_dur;
  for (const std::string& root : roots) {
    if (auto it = self.find(root); it != self.end()) {
      root_self.insert(root_self.end(), it->second.begin(), it->second.end());
      const auto& d = dur.at(root);
      root_dur.insert(root_dur.end(), d.begin(), d.end());
    }
  }
  l->unaccounted_ns = Median(root_self);
  l->call_ns = Median(root_dur);
  l->encode_ns = MedianOf(dur, "net.protocol.encode");
  l->decode_ns = MedianOf(dur, "net.protocol.decode");
  l->service_reaches_ns = MedianOf(dur, "core.service.reaches");
  l->service_batch_ns_per_pair =
      MedianOf(dur, "core.service.reaches_batch") / Sizes::kBatchPairs;
  l->add_run_ms = MedianOf(dur, "core.service.add_run") / 1e6;
  l->apply_delta_ms = MedianOf(dur, "core.service.apply_delta") / 1e6;
  l->construct_plan_ms = MedianOf(dur, "core.plan_builder.construct_plan") / 1e6;
  l->from_plan_ms = MedianOf(dur, "core.run_labeling.from_plan") / 1e6;
  l->xml_write_ms = MedianOf(dur, "io.workflow_xml.write") / 1e6;
  l->xml_read_ms = MedianOf(dur, "io.workflow_xml.read") / 1e6;
  if (auto it = dur.find("replication.oplog.append"); it != dur.end()) {
    l->oplog_append_p50_us = Quantile(it->second, 0.5) / 1e3;
    l->oplog_append_p99_us = Quantile(it->second, 0.99) / 1e3;
  }
  // Human-readable ledger: median self time per span name.
  for (const auto& [name, values] : self) {
    std::printf("ledger %-36s self p50 %12.0f ns  (%zu spans)\n", name.c_str(),
                Median(values), values.size());
  }
}

void EmitLayers(const Layers& l, Outcome* out) {
  out->Add("net.client.call_ns", l.call_ns, "ns");
  out->Add("net.protocol.encode_ns", l.encode_ns, "ns");
  out->Add("net.protocol.decode_ns", l.decode_ns, "ns");
  out->Add("net.protocol.reply_bytes_per_pair", l.reply_bytes_per_pair,
           "B/pair");
  for (const Metric& m : l.server) out->Add(m.name, m.value, m.unit);
  out->Add("net.server.epoll_wakeups_per_request",
           l.epoll_wakeups_per_request, "count");
  out->Add("net.unaccounted_ns", l.unaccounted_ns, "ns");
  out->Add("core.service.reaches_ns", l.service_reaches_ns, "ns");
  out->Add("core.service.batch_ns_per_pair", l.service_batch_ns_per_pair,
           "ns");
  out->Add("core.query_cache.hit_ratio", l.cache_hit_ratio, "ratio");
  out->Add("core.query_cache.lookups_per_request",
           l.cache_lookups_per_request, "count");
  out->Add("core.service.preload_ms", l.preload_ms, "ms");
  out->Add("core.service.add_run_ms", l.add_run_ms, "ms");
  out->Add("core.service.apply_delta_ms", l.apply_delta_ms, "ms");
  out->Add("core.plan_builder.construct_plan_ms", l.construct_plan_ms, "ms");
  out->Add("core.run_labeling.from_plan_ms", l.from_plan_ms, "ms");
  out->Add("io.workflow_xml.write_ms", l.xml_write_ms, "ms");
  out->Add("io.workflow_xml.read_ms", l.xml_read_ms, "ms");
  out->Add("replication.oplog.append_us.p50", l.oplog_append_p50_us, "us");
  out->Add("replication.oplog.append_us.p99", l.oplog_append_p99_us, "us");
  out->Add("replication.oplog.fsync_us.p50", l.oplog_fsync_p50_us, "us");
  out->Add("replication.oplog.fsync_us.p99", l.oplog_fsync_p99_us, "us");
  out->Add("replication.oplog.bytes_per_run", l.oplog_bytes_per_run, "B");
  out->Add("replication.recover_primary_ms", l.recover_primary_ms, "ms");
  out->Add("io.snapshot.load_ms", l.snapshot_load_ms, "ms");
  out->Add("io.snapshot.save_ms", l.snapshot_save_ms, "ms");
  out->Add("io.snapshot.bytes", l.snapshot_bytes, "B");
  out->Add("speclabel.scheme_build_ms", l.scheme_build_ms, "ms");
  out->Add("trace.overhead_frac", l.overhead_frac, "ratio");
}

/// Hit ratio and lookups per query request between two service-stat
/// readings that enclose `requests` requests.
void CacheDelta(const skl::ServiceStats& before,
                const skl::ServiceStats& after, uint64_t requests, Layers* l) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double misses =
      static_cast<double>(after.cache_misses - before.cache_misses);
  l->cache_lookups_per_request =
      requests > 0 ? (hits + misses) / static_cast<double>(requests) : 0;
  l->cache_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
}

// ------------------------------------------------------- end of run --

/// The registry's paper metrics and snapshot size, checked against the
/// label-length bound of Fig. 12: bits <= 3 ceil(log2 n_R) + ceil(log2 n_G).
struct FinalState {
  double label_bits_max = 0;
  double snapshot_bytes = 0;
  double snapshot_bytes_per_vertex = 0;
  double save_ms = 0;
};

FinalState Inspect(const skl::ProvenanceService& service,
                   const std::string& snapshot_path, Outcome* out) {
  FinalState state;
  uint64_t vertices = 0;
  uint32_t max_bits = 0;
  uint64_t over_bound = 0;
  for (skl::RunId id : service.ListRuns()) {
    skl::Result<skl::RunStats> stats = service.Stats(id);
    out->Count(stats.ok(), "RunStats");
    if (!stats.ok()) continue;
    vertices += stats->num_vertices;
    max_bits = std::max(max_bits, stats->label_bits);
    if (stats->label_bits == 0) continue;  // imported: no labeling stats
    const auto* epoch = service.FindEpoch(stats->epoch);
    const double n_g = epoch != nullptr
                           ? epoch->spec->graph().num_vertices()
                           : service.spec().graph().num_vertices();
    const double bound =
        3 * std::ceil(std::log2(std::max<double>(stats->num_vertices, 2))) +
        std::ceil(std::log2(std::max(n_g, 2.0)));
    const bool within = stats->label_bits <= bound;
    out->Count(within, "label bits within the Fig. 12 bound");
    over_bound += within ? 0 : 1;
  }
  Note("label_bits_over_bound", std::to_string(over_bound));
  // The set-ups before leave freed memory resident in the allocator's
  // arenas. Whether the save's buffers landed in it depended on which arena
  // a thread drew, and rss_peak_mb on scan_cold came out one snapshot size
  // (15 MB) lower on some runs. Returning free memory first makes the peak
  // count every page the save touches.
  malloc_trim(0);
  const int64_t t0 = NowNs();
  Must(service.SaveSnapshot(snapshot_path), "save snapshot");
  state.save_ms = MsSince(t0);
  state.snapshot_bytes =
      static_cast<double>(std::filesystem::file_size(snapshot_path));
  state.label_bits_max = max_bits;
  state.snapshot_bytes_per_vertex =
      vertices > 0 ? state.snapshot_bytes / vertices : 0;
  return state;
}

/// The gated end-to-end metrics, plus the wall-clock latencies, set-up and
/// restart times and throughput as run-record lines (printed, not gated;
/// see the top of this file).
void EmitEndToEnd(const CallerStats& primary, double query_qps,
                  const std::vector<Timing>& setup_s,
                  const std::vector<Timing>& restart_s,
                  const FinalState& final, Outcome* out) {
  const LatencyLog all = primary.All();
  out->Add("request_cpu_us",
           primary.cpu_ns / 1e3 / std::max<uint64_t>(all.total(), 1), "us");
  out->Add("setup_s", MedianOf(setup_s, &Timing::cpu_s), "s");
  out->Add("restart_s", MedianOf(restart_s, &Timing::cpu_s), "s");
  out->Add("rss_peak_mb", PeakRssMb(), "MB");
  out->Add("snapshot_bytes_per_vertex", final.snapshot_bytes_per_vertex,
           "B/vertex");
  out->Add("label_bits_max", final.label_bits_max, "bits");
  Note("setup_repeats", std::to_string(setup_s.size()));
  Note("setup_wall_s", std::to_string(MedianOf(setup_s, &Timing::wall_s)));
  Note("restart_wall_s", std::to_string(MedianOf(restart_s, &Timing::wall_s)));
  Note("request_samples", std::to_string(all.total()));
  Note("request_p50_us", std::to_string(WindowedQuantile(primary, 0.50)));
  Note("request_p90_us", std::to_string(WindowedQuantile(primary, 0.90)));
  Note("request_p99_us", std::to_string(all.Quantile(0.99)) +
                             " (over the whole run)");
  Note("query_qps", std::to_string(query_qps));
}

// ------------------------------------------------------ single reads --

struct ServedRuns {
  std::unique_ptr<skl::OpLog> oplog;  ///< outlives the server
  std::unique_ptr<skl::ProvenanceServer> server;
  std::vector<skl::RunId> ids;  ///< by run index

  /// Stops the server before closing the op-log it appends to.
  void Stop() {
    server.reset();
    oplog.reset();
  }
};

/// The read_hot/ingest_mixed set-up: scheme build, preload through
/// AddRunsParallel (logged when `oplog_path` is set), server start.
ServedRuns StartPreloaded(const HotInputs& in, const std::string& oplog_path,
                          double* scheme_ms, double* preload_ms) {
  ServedRuns served;
  const int64_t t0 = NowNs();
  skl::ProvenanceService service = Must(
      skl::ProvenanceService::Create(in.spec, skl::SpecSchemeKind::kTcm,
                                     ServiceOptions()),
      "scheme build");
  *scheme_ms = MsSince(t0);
  if (!oplog_path.empty()) {
    std::filesystem::remove(oplog_path);
    skl::OpLog::Options log_options;
    log_options.fsync = kOpLogFsync;
    served.oplog = Must(
        skl::OpLog::Open(oplog_path, skl::WriteSpecificationXml(in.spec),
                         skl::SpecSchemeKindName(skl::SpecSchemeKind::kTcm),
                         log_options),
        "op-log open");
    service.AttachOpLog(served.oplog.get());
  }
  const int64_t t1 = NowNs();
  std::vector<const skl::DataCatalog*> catalogs;
  for (const skl::DataCatalog& c : in.catalogs) catalogs.push_back(&c);
  for (auto& id : service.AddRunsParallel(in.runs, catalogs)) {
    served.ids.push_back(Must(std::move(id), "preload"));
  }
  *preload_ms = MsSince(t1);
  served.server = StartServer(std::move(service), served.oplog.get());
  return served;
}

/// Closed-loop single queries from `stream`; traced calls replay the
/// request's frames and the in-process service call.
void HotReader(skl::ProvenanceClient& client,
               const skl::ProvenanceServer& server, const HotInputs& in,
               const std::vector<skl::RunId>& ids,
               const std::vector<uint32_t>& stream, uint64_t* cursor,
               unsigned index, const Phase& phase, CallerStats* out) {
  for (uint64_t i = 0; !phase.Done(i); ++i) {
    const Query& q = in.keys[stream[(*cursor)++ % stream.size()]];
    const skl::RunId id = ids[q.run];
    const bool reaches = q.kind == QueryKind::kReaches;
    const bool traced = phase.TracedNow();
    const bool sampled = traced && i % kReadSampleEvery == 0;
    const uint64_t request_id = sampled ? RequestId(index, i) : 0;
    client.set_trace_id(request_id);
    const int64_t t0 = NowNs();
    skl::Result<bool> answer = reaches ? client.Reaches(id, q.a, q.b)
                                       : client.DependsOn(id, q.a, q.b);
    const int64_t t1 = NowNs();
    const bool ok = answer.ok() && *answer == q.expected;
    out->Count(ok, reaches ? "Reaches answer" : "DependsOn answer");
    out->Record(t0, t1, ok ? 1 : 0, traced);
    if (!sampled) continue;

    const MsgType op = reaches ? MsgType::kReaches : MsgType::kDependsOn;
    skl::PayloadWriter request;
    request.U64(id.value());
    request.U64(q.a);
    request.U64(q.b);
    request.U64(0);
    request.U64(request_id);
    skl::PayloadWriter reply;
    reply.Boolean(q.expected);
    const CodecReplay codec =
        ReplayCodec(op, request_id, std::move(request).Finish(),
                    std::move(reply).Finish());
    out->reply_bytes_per_pair.push_back(
        static_cast<double>(codec.reply_bytes));
    const int64_t s0 = NowNs();
    skl::Result<bool> local = reaches
                                  ? server.service().Reaches(id, q.a, q.b)
                                  : server.service().DependsOn(id, q.a, q.b);
    const int64_t s1 = NowNs();
    out->Count(codec.ok && local.ok() && *local == q.expected,
               "in-process replay of a single query");
    PendingCall pc;
    pc.call = {reaches ? "client.reaches" : "client.depends_on", request_id,
               t0, t1, CodecPieces(codec)};
    pc.op = op;
    pc.exec_children = {
        {reaches ? "core.service.reaches" : "core.service.depends_on",
         s1 - s0,
         {}}};
    out->calls.push_back(std::move(pc));
  }
}

/// A correct answer to one Reaches check: the restart probe.
bool Probe(skl::ProvenanceClient& client, skl::RunId id, const Query& q) {
  skl::Result<bool> answer = client.Reaches(id, q.a, q.b);
  return answer.ok() && *answer == q.expected;
}

/// Stops the server, then times LoadSnapshot + start + the first correct
/// answer.
Timing RestartFromSnapshot(ServedRuns* served, const std::string& path,
                           skl::RunId probe_id, const Query& probe,
                           Outcome* out, std::vector<double>* load_ms) {
  served->server->Shutdown();
  served->server.reset();
  const Stopwatch watch;
  const int64_t t0 = NowNs();
  skl::ProvenanceService service = Must(
      skl::ProvenanceService::LoadSnapshot(path, ServiceOptions()),
      "snapshot load");
  load_ms->push_back(MsSince(t0));
  served->server = StartServer(std::move(service), nullptr);
  skl::ProvenanceClient client = Connect(*served->server);
  out->Count(Probe(client, probe_id, probe), "first answer after restart");
  return watch.Stop();
}

/// Untraced: one timed phase. Traced: an untraced half, whose cache
/// figures go to `layers` (the in-process replays would add lookups of
/// their own), then a traced half. Returns the stats of the phase the
/// metrics come from.
template <typename Reader>
CallerStats MeasureReaders(const Args& args, unsigned clients,
                           const skl::ProvenanceServer& server,
                           const Reader& reader, Layers* layers, Outcome* out) {
  if (!args.trace) {
    CallerStats stats =
        RunCallers(clients, TimedPhase(args, args.seconds, false), reader);
    Absorb(stats, out);
    return stats;
  }
  const skl::ServiceStats before = server.service().service_stats();
  const CallerStats untraced =
      RunCallers(clients, TimedPhase(args, args.seconds / 2, false), reader);
  CacheDelta(before, server.service().service_stats(), untraced.attempted,
             layers);
  Absorb(untraced, out);
  CallerStats traced =
      RunCallers(clients, TimedPhase(args, args.seconds / 2, true), reader);
  Absorb(traced, out);
  return traced;
}

/// Median roundtrip of the traced slices of a traced phase over that of
/// its untraced slices, minus 1.
double OverheadFrac(const CallerStats& stats) {
  const LatencyLog& off = stats.by_tracing[0];
  const LatencyLog& on = stats.by_tracing[1];
  if (off.total() == 0 || on.total() == 0) return 0;
  return on.Quantile(0.5) / off.Quantile(0.5) - 1;
}

void WriteSpans(const Args& args, const Ledger& ledger) {
  if (args.spans_out.empty()) return;
  if (!ledger.WriteJsonLines(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
    std::exit(1);
  }
  Note("spans", args.spans_out + " (" +
                    std::to_string(ledger.spans().size()) + " spans)");
}

}  // namespace

// ------------------------------------------------------------ read_hot --

Outcome RunReadHot(const Args& args) {
  Digest digest;
  HotInputs in = MakeHotInputs(args.seed, args.clients, &digest);
  if (args.corrupt_oracle) {
    Query& q = in.keys[in.streams[0][0]];
    q.expected = !q.expected;
  }
  Note("input_digest", Hex(digest.value()));

  Layers layers;
  std::vector<Timing> setup_s;
  std::vector<double> scheme_ms, preload_ms;
  ServedRuns served;
  auto setup = [&] {
    served.Stop();
    const Stopwatch watch;
    double scheme = 0, preload = 0;
    served = StartPreloaded(in, "", &scheme, &preload);
    scheme_ms.push_back(scheme);
    preload_ms.push_back(preload);
    return watch.Stop();
  };
  SetupRound(setup, &setup_s);

  std::vector<skl::ProvenanceClient> clients;
  for (unsigned i = 0; i < args.clients; ++i) {
    clients.push_back(Connect(*served.server));
  }
  std::vector<uint64_t> cursors(args.clients, 0);
  const skl::ProvenanceServer& server = *served.server;
  auto reader = [&](unsigned i, const Phase& phase, CallerStats* s) {
    HotReader(clients[i], server, in, served.ids, in.streams[i], &cursors[i],
              i, phase, s);
  };
  Outcome out;
  Phase warmup;
  warmup.requests = kWarmupRequests;
  Absorb(RunCallers(args.clients, warmup, reader), &out);

  CallerStats stats =
      MeasureReaders(args, args.clients, server, reader, &layers, &out);
  const double qps = WindowedRate(stats);
  Ledger ledger;
  if (args.trace) {
    CaptureServer(server, &layers);
    LayOut(server, &stats.calls, &ledger);
    ReadLedger(ledger, {"client.reaches", "client.depends_on"}, &layers);
    layers.reply_bytes_per_pair = Median(stats.reply_bytes_per_pair);
    layers.overhead_frac = OverheadFrac(stats);
    WriteSpans(args, ledger);
  }
  clients.clear();

  const std::string snapshot = args.work_dir + "/read_hot.skls";
  const FinalState final = Inspect(server.service(), snapshot, &out);
  std::vector<Timing> restart_s;
  std::vector<double> load_ms;
  const Query& probe = *std::find_if(
      in.keys.begin(), in.keys.end(),
      [](const Query& q) { return q.kind == QueryKind::kReaches; });
  auto restart = [&] {
    return RestartFromSnapshot(&served, snapshot, served.ids[probe.run],
                               probe, &out, &load_ms);
  };
  // Reads leave the served state as it was set up, so set-ups and restarts
  // may replace one another from here on.
  RestartRound(restart, &restart_s);
  SetupRound(setup, &setup_s);
  RestartRound(restart, &restart_s);
  layers.scheme_build_ms = Median(scheme_ms);
  layers.preload_ms = Median(preload_ms);
  Note("failed_frac", std::to_string(out.failed) + "/" +
                          std::to_string(out.attempted));
  if (!args.trace) {
    EmitEndToEnd(stats, qps, setup_s, restart_s, final, &out);
  } else {
    layers.snapshot_save_ms = final.save_ms;
    layers.snapshot_bytes = final.snapshot_bytes;
    layers.snapshot_load_ms = Median(load_ms);
    EmitLayers(layers, &out);
  }
  return out;
}

// ----------------------------------------------------------- scan_cold --

namespace {

void BatchReader(skl::ProvenanceClient& client,
                 const skl::ProvenanceServer& server, const ColdInputs& in,
                 const std::vector<skl::RunId>& ids,
                 const std::vector<uint32_t>& stream, uint64_t* cursor,
                 uint64_t* replay_cursor, unsigned index, const Phase& phase,
                 CallerStats* out) {
  for (uint64_t i = 0; !phase.Done(i); ++i) {
    const Batch& batch = in.batches[stream[(*cursor)++ % stream.size()]];
    const skl::RunId id = ids[batch.run];
    const bool traced = phase.TracedNow();
    const bool sampled = traced && i % kBatchSampleEvery == 0;
    const uint64_t request_id = sampled ? RequestId(index, i) : 0;
    client.set_trace_id(request_id);
    const int64_t t0 = NowNs();
    skl::Result<std::vector<bool>> answers =
        client.ReachesBatch(id, batch.pairs);
    const int64_t t1 = NowNs();
    const bool ok = answers.ok() && *answers == batch.expected;
    out->Count(ok, "ReachesBatch answers");
    out->Record(t0, t1, ok ? static_cast<uint32_t>(batch.pairs.size()) : 0,
                traced);
    if (!sampled) continue;

    skl::PayloadWriter request;
    request.U64(id.value());
    request.U64(batch.pairs.size());
    for (const auto& [v, w] : batch.pairs) {
      request.U64(v);
      request.U64(w);
    }
    request.U64(0);
    request.U64(request_id);
    skl::PayloadWriter reply;
    reply.U64(batch.expected.size());
    for (bool answer : batch.expected) reply.Boolean(answer);
    const CodecReplay codec =
        ReplayCodec(MsgType::kReachesBatch, request_id,
                    std::move(request).Finish(), std::move(reply).Finish());
    out->reply_bytes_per_pair.push_back(
        static_cast<double>(codec.reply_bytes) / batch.pairs.size());
    // The in-process replay uses a batch of the same distribution that was
    // never sent, so it meets the cache as cold as the wire traffic does.
    const Batch& replay =
        in.replay_batches[(*replay_cursor)++ % in.replay_batches.size()];
    const int64_t s0 = NowNs();
    skl::Result<std::vector<bool>> local =
        server.service().ReachesBatch(ids[replay.run], replay.pairs);
    const int64_t s1 = NowNs();
    out->Count(codec.ok && local.ok() && *local == replay.expected,
               "in-process replay of a batch");
    PendingCall pc;
    pc.call = {"client.reaches_batch", request_id, t0, t1, CodecPieces(codec)};
    pc.op = MsgType::kReachesBatch;
    pc.exec_children = {{"core.service.reaches_batch", s1 - s0, {}}};
    out->calls.push_back(std::move(pc));
  }
}

}  // namespace

Outcome RunScanCold(const Args& args) {
  // The runs are labeled into a service chunk by chunk as they are
  // generated; its snapshot is what every set-up restarts from.
  const std::string snapshot = args.work_dir + "/scan_cold.skls";
  std::vector<skl::RunId> ids;
  Digest digest;
  ColdInputs in;
  {
    skl::ProvenanceService labeled = Must(
        skl::ProvenanceService::Create(ColdSpec(), skl::SpecSchemeKind::kTcm,
                                       ServiceOptions()),
        "scheme build");
    in = MakeColdInputs(
        args.seed, args.clients, &digest, [&](std::vector<skl::Run> runs) {
          for (auto& id : labeled.AddRunsParallel(runs)) {
            ids.push_back(Must(std::move(id), "label run"));
          }
        });
    Must(labeled.SaveSnapshot(snapshot), "save snapshot");
  }
  if (args.corrupt_oracle) {
    Batch& b = in.batches[in.streams[0][0]];
    b.expected[0] = !b.expected[0];
  }
  Note("input_digest", Hex(digest.value()));

  Layers layers;
  std::vector<Timing> setup_s;
  std::vector<double> load_ms, scheme_ms;
  ServedRuns served;
  served.ids = ids;
  auto setup = [&] {
    served.server.reset();
    const Stopwatch watch;
    const int64_t t0 = NowNs();
    skl::ProvenanceService service = Must(
        skl::ProvenanceService::LoadSnapshot(snapshot, ServiceOptions()),
        "snapshot load");
    load_ms.push_back(MsSince(t0));
    served.server = StartServer(std::move(service), nullptr);
    return watch.Stop();
  };
  SetupRound(setup, &setup_s);
  if (args.trace) {
    // LoadSnapshot builds the scheme inside; time that step on its own.
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const int64_t t0 = NowNs();
      Must(skl::ProvenanceService::Create(ColdSpec(),
                                          skl::SpecSchemeKind::kTcm),
           "scheme build");
      scheme_ms.push_back(MsSince(t0));
    }
    layers.scheme_build_ms = Median(scheme_ms);
  }

  std::vector<skl::ProvenanceClient> clients;
  for (unsigned i = 0; i < args.clients; ++i) {
    clients.push_back(Connect(*served.server));
  }
  std::vector<uint64_t> cursors(args.clients, 0), replay_cursors(args.clients);
  for (unsigned i = 0; i < args.clients; ++i) replay_cursors[i] = i;
  const skl::ProvenanceServer& server = *served.server;
  auto reader = [&](unsigned i, const Phase& phase, CallerStats* s) {
    BatchReader(clients[i], server, in, served.ids, in.streams[i],
                &cursors[i], &replay_cursors[i], i, phase, s);
  };
  Outcome out;
  Phase warmup;
  warmup.requests = 8;
  Absorb(RunCallers(args.clients, warmup, reader), &out);

  CallerStats stats =
      MeasureReaders(args, args.clients, server, reader, &layers, &out);
  const double qps = WindowedRate(stats);
  if (args.trace) {
    Ledger ledger;
    CaptureServer(server, &layers);
    LayOut(server, &stats.calls, &ledger);
    ReadLedger(ledger, {"client.reaches_batch"}, &layers);
    layers.reply_bytes_per_pair = Median(stats.reply_bytes_per_pair);
    layers.overhead_frac = OverheadFrac(stats);
    WriteSpans(args, ledger);
  }
  clients.clear();

  const FinalState final = Inspect(server.service(), snapshot, &out);
  Query probe;
  probe.run = in.batches[0].run;
  probe.a = in.batches[0].pairs[0].first;
  probe.b = in.batches[0].pairs[0].second;
  probe.expected = in.batches[0].expected[0];
  std::vector<Timing> restart_s;
  std::vector<double> restart_load_ms;
  auto restart = [&] {
    return RestartFromSnapshot(&served, snapshot, served.ids[probe.run],
                               probe, &out, &restart_load_ms);
  };
  // Reads leave the served state as it was loaded, so set-ups and restarts
  // may replace one another from here on.
  RestartRound(restart, &restart_s);
  SetupRound(setup, &setup_s);
  RestartRound(restart, &restart_s);
  Note("failed_frac", std::to_string(out.failed) + "/" +
                          std::to_string(out.attempted));
  if (!args.trace) {
    EmitEndToEnd(stats, qps, setup_s, restart_s, final, &out);
  } else {
    layers.snapshot_save_ms = final.save_ms;
    layers.snapshot_bytes = final.snapshot_bytes;
    layers.snapshot_load_ms = Median(load_ms);
    EmitLayers(layers, &out);
  }
  return out;
}

// -------------------------------------------------------- ingest_mixed --

namespace {

/// An ingested run the writer still holds, with the checks that prove it.
struct LiveRun {
  skl::RunId id;
  const std::vector<Query>* checks = nullptr;
};

/// The in-process replays of the write path: a service and an op-log of
/// their own, so nothing replayed reaches the served state.
struct WriteReplay {
  skl::ProvenanceService service;
  std::unique_ptr<skl::OpLog> oplog;
  std::vector<double> log_bytes;
};

struct Writer {
  skl::ProvenanceClient* client = nullptr;
  const IngestInputs* in = nullptr;
  const std::vector<std::vector<uint8_t>>* blobs = nullptr;
  WriteReplay* replay = nullptr;
  Pacer* pacer = nullptr;
  std::deque<LiveRun> live;
  uint64_t adds = 0;

  /// Executes schedule[begin, end) until the deadline.
  void Run(size_t begin, size_t end, const Phase& phase, CallerStats* out);
  void AddRun(const skl::Run& run, const std::vector<Query>* checks,
              bool traced, CallerStats* out);
};

void Writer::AddRun(const skl::Run& run, const std::vector<Query>* checks,
                    bool traced, CallerStats* out) {
  const bool sampled = traced && adds % kWriteSampleEvery == 0;
  const uint64_t request_id = sampled ? RequestId(0, adds) : 0;
  ++adds;
  client->set_trace_id(request_id);
  // Client-side XML encode is part of acknowledging a run.
  const int64_t t0 = NowNs();
  const std::string xml = skl::WriteRunXml(run);
  const int64_t tx = NowNs();
  skl::Result<skl::RunId> id = client->AddRunXml(xml);
  const int64_t t1 = NowNs();
  out->Count(id.ok(), "AddRun");
  out->Record(t0, t1, 0, traced);
  if (!id.ok()) return;
  live.push_back({*id, checks});
  if (!sampled) return;

  skl::PayloadWriter request;
  request.Str(xml);
  request.U64(request_id);
  skl::PayloadWriter reply;
  reply.U64(id->value());
  reply.U64(client->last_write_lsn());
  const CodecReplay codec =
      ReplayCodec(MsgType::kAddRun, request_id, std::move(request).Finish(),
                  std::move(reply).Finish());
  skl::ProvenanceService& service = replay->service;
  const int64_t x0 = NowNs();
  skl::Result<skl::Run> parsed = skl::ReadRunXml(xml);
  const int64_t x1 = NowNs();
  const int64_t p0 = NowNs();
  skl::Result<skl::RecoveredPlan> plan =
      parsed.ok() ? skl::ConstructPlan(service.spec(), *parsed)
                  : skl::Result<skl::RecoveredPlan>(parsed.status());
  const int64_t p1 = NowNs();
  skl::Result<skl::RunLabeling> labeling =
      plan.ok() ? skl::RunLabeling::FromPlan(service.spec(), &service.scheme(),
                                             plan->plan, plan->origin)
                : skl::Result<skl::RunLabeling>(plan.status());
  const int64_t p2 = NowNs();
  skl::Result<skl::RunId> local =
      labeling.ok() ? service.AddRun(*parsed)
                    : skl::Result<skl::RunId>(labeling.status());
  const int64_t p3 = NowNs();
  out->Count(codec.ok && local.ok(), "in-process replay of AddRun");
  if (!local.ok()) return;
  skl::LogOp op;
  op.kind = skl::LogOp::Kind::kAddRun;
  op.run_id = local->value();
  op.stats = *service.Stats(*local);
  op.blob = Must(service.ExportRun(*local), "export replayed run");
  Must(service.RemoveRun(*local), "remove replayed run");
  replay->log_bytes.push_back(
      static_cast<double>(skl::SerializeLogOp(op).size()));
  // The served op-log does not fsync, so the append span leaves out the
  // replay log's fsync (recorded in whole µs); it is reported on its own.
  const uint64_t fsync_us = replay->oplog->fsync_histogram().Sum();
  const int64_t a0 = NowNs();
  out->Count(replay->oplog->Append(std::move(op)).ok(),
             "replayed op-log append");
  const int64_t a1 =
      NowNs() -
      static_cast<int64_t>(replay->oplog->fsync_histogram().Sum() - fsync_us) *
          1000;

  PendingCall pc;
  pc.call = {"client.add_run", request_id, t0, t1,
             {{"io.workflow_xml.write", tx - t0, {}}}};
  for (Piece& p : CodecPieces(codec)) pc.call.pieces.push_back(std::move(p));
  pc.op = MsgType::kAddRun;
  pc.exec_children = {
      {"io.workflow_xml.read", x1 - x0, {}},
      {"core.service.add_run",
       p3 - p2,
       {{"core.plan_builder.construct_plan", p1 - p0, {}},
        {"core.run_labeling.from_plan", p2 - p1, {}}}},
      {"replication.oplog.append", a1 - a0, {}}};
  out->calls.push_back(std::move(pc));
}

void Writer::Run(size_t begin, size_t end, const Phase& phase,
                 CallerStats* out) {
  for (size_t k = begin; k < end && !phase.Done(0); ++k) {
    const WriteOp& op = in->schedule[k];
    const bool traced = phase.TracedNow();
    if (pacer != nullptr) pacer->Grant(kReadsPerWrite);
    switch (op.kind) {
      case WriteKind::kAddRun:
        AddRun(in->pool[op.item], &in->checks[op.item], traced, out);
        break;
      case WriteKind::kRemoveImport: {
        client->set_trace_id(0);
        if (!live.empty()) {
          out->Count(client->RemoveRun(live.front().id).ok(), "RemoveRun");
          live.pop_front();
        }
        skl::Result<skl::RunId> id = client->ImportRun((*blobs)[op.item]);
        out->Count(id.ok(), "ImportRun");
        if (id.ok()) live.push_back({*id, &in->hot_checks[op.item]});
        break;
      }
      case WriteKind::kDeltaPair: {
        const uint64_t request_id = traced ? RequestId(2, op.item) : 0;
        client->set_trace_id(request_id);
        const skl::SpecDelta& graft = in->deltas[2 * op.item];
        const skl::SpecDelta& ungraft = in->deltas[2 * op.item + 1];
        const int64_t t0 = NowNs();
        const bool ok = client->ApplySpecDelta(graft).ok() &&
                        client->ApplySpecDelta(ungraft).ok();
        const int64_t t1 = NowNs();
        out->Count(ok, "ApplySpecDelta pair");
        if (!traced) break;
        const int64_t d0 = NowNs();
        const bool grafted = replay->service.ApplySpecDelta(graft).ok();
        const int64_t d1 = NowNs();
        const bool ungrafted = replay->service.ApplySpecDelta(ungraft).ok();
        const int64_t d2 = NowNs();
        out->Count(grafted && ungrafted, "in-process replay of a delta pair");
        PendingCall pc;
        pc.call = {"client.apply_spec_delta_pair", request_id, t0, t1, {}};
        pc.exec_children = {{"core.service.apply_delta", d1 - d0, {}},
                            {"core.service.apply_delta", d2 - d1, {}}};
        out->calls.push_back(std::move(pc));
        break;
      }
    }
  }
}

std::string FileSystemName(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "statfs type 0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Durability after recovery: every acknowledged run that was not removed
/// is back, and a sample of them answers as the oracle does.
void CheckDurability(skl::ProvenanceClient& client,
                     const std::vector<skl::RunId>& preloaded,
                     const std::deque<LiveRun>& live, const IngestInputs& in,
                     Outcome* out) {
  std::set<uint64_t> expected;
  for (skl::RunId id : preloaded) expected.insert(id.value());
  for (const LiveRun& r : live) expected.insert(r.id.value());
  std::set<uint64_t> listed;
  skl::Result<std::vector<skl::RunId>> ids = client.ListRuns();
  out->Count(ids.ok(), "ListRuns after recovery");
  if (ids.ok()) {
    for (skl::RunId id : *ids) listed.insert(id.value());
  }
  uint64_t lost = 0;
  for (uint64_t id : expected) {
    const bool present = listed.count(id) > 0;
    out->Count(present, "acknowledged run present after recovery");
    lost += present ? 0 : 1;
  }
  out->Count(listed.size() == expected.size(),
             "no unexpected runs after recovery");
  for (uint32_t r = 0; r < preloaded.size(); ++r) {
    for (const Query& q : in.hot_checks[r]) {
      out->Count(Probe(client, preloaded[r], q),
                 "preloaded run answer after recovery");
    }
  }
  const size_t step = std::max<size_t>(1, live.size() / kDurabilitySampleRuns);
  for (size_t i = 0; i < live.size(); i += step) {
    for (const Query& q : *live[i].checks) {
      out->Count(Probe(client, live[i].id, q),
                 "ingested run answer after recovery");
    }
  }
  Note("durability", std::to_string(expected.size()) +
                         " acknowledged runs expected, " +
                         std::to_string(lost) + " lost");
}

}  // namespace

Outcome RunIngestMixed(const Args& args) {
  Digest digest;
  IngestInputs in = MakeIngestInputs(args.seed, args.seconds, &digest);
  if (args.corrupt_oracle) {
    Query& q = in.hot.keys[in.hot.streams[0][0]];
    q.expected = !q.expected;
  }
  Note("input_digest", Hex(digest.value()));
  Note("oplog_fsync",
       std::string(kOpLogFsync ? "fsync after every append"
                               : "no fsync (appends reach the page cache)") +
           (args.trace ? "; traced replay log: fsync after every append"
                       : ""));
  Note("oplog_filesystem", FileSystemName(args.work_dir));

  Layers layers;
  std::vector<Timing> setup_s;
  std::vector<double> scheme_ms, preload_ms;
  ServedRuns served;
  std::string oplog_path;
  auto setup = [&] {
    served.Stop();
    if (!oplog_path.empty()) std::filesystem::remove(oplog_path);
    oplog_path =
        args.work_dir + "/ops-" + std::to_string(setup_s.size()) + ".log";
    const Stopwatch watch;
    double scheme = 0, preload = 0;
    served = StartPreloaded(in.hot, oplog_path, &scheme, &preload);
    scheme_ms.push_back(scheme);
    preload_ms.push_back(preload);
    return watch.Stop();
  };
  SetupRound(setup, &setup_s);

  // Blobs exported before the clock; ImportRun re-ingests them.
  std::vector<std::vector<uint8_t>> blobs;
  for (skl::RunId id : served.ids) {
    blobs.push_back(Must(served.server->service().ExportRun(id), "export"));
  }
  WriteReplay replay{Must(skl::ProvenanceService::Create(
                              in.hot.spec, skl::SpecSchemeKind::kTcm),
                          "scheme build"),
                     nullptr,
                     {}};
  if (args.trace) {
    replay.oplog = Must(
        skl::OpLog::Open(args.work_dir + "/replay-ops.log",
                         skl::WriteSpecificationXml(in.hot.spec),
                         skl::SpecSchemeKindName(skl::SpecSchemeKind::kTcm)),
        "replay op-log open");
  }

  skl::ProvenanceClient writer_client = Connect(*served.server);
  skl::ProvenanceClient reader_client = Connect(*served.server);
  const skl::ProvenanceServer& server = *served.server;
  uint64_t cursor = 0;
  Outcome out;
  Phase warmup;
  warmup.requests = kWarmupRequests;
  {
    CallerStats s;
    s.Begin(warmup);
    HotReader(reader_client, server, in.hot, served.ids, in.hot.streams[0],
              &cursor, 0, warmup, &s);
    Absorb(s, &out);
  }

  Writer writer;
  writer.client = &writer_client;
  writer.in = &in;
  writer.blobs = &blobs;
  writer.replay = &replay;
  // One phase = the writer working through part of the schedule while the
  // reader sends the queries each write grants it.
  auto phase = [&](size_t begin, size_t end, double seconds, bool traced,
                   CallerStats* writes, CallerStats* reads) {
    Pacer pacer;
    writer.pacer = &pacer;
    Phase write_phase = TimedPhase(args, seconds, traced);
    write_phase.requests = 0;
    Phase read_phase = TimedPhase(args, seconds, traced);
    read_phase.pacer = &pacer;
    const int64_t cpu0 = CpuNs();
    std::thread reader([&] {
      reads->Begin(read_phase);
      HotReader(reader_client, server, in.hot, served.ids, in.hot.streams[0],
                &cursor, 1, read_phase, reads);
      reads->end_ns = NowNs();
    });
    std::thread writing([&] {
      writes->Begin(write_phase);
      writer.Run(begin, end, write_phase, writes);
      writes->end_ns = NowNs();
      pacer.Close();
    });
    writing.join();
    reader.join();
    writes->cpu_ns = CpuNs() - cpu0;
    writer.pacer = nullptr;
    Absorb(*writes, &out);
    Absorb(*reads, &out);
  };
  const size_t total = in.schedule.size();
  CallerStats writes, reads;
  if (!args.trace) {
    phase(0, total, args.seconds, false, &writes, &reads);
  } else {
    CallerStats untraced_writes, untraced_reads;
    const skl::ServiceStats before = server.service().service_stats();
    phase(0, total / 2, args.seconds / 2, false, &untraced_writes,
          &untraced_reads);
    CacheDelta(before, server.service().service_stats(),
               untraced_reads.attempted, &layers);
    phase(total / 2, total, args.seconds / 2, true, &writes, &reads);
  }
  Note("writes", std::to_string(writes.Count()) + " AddRun in " +
                     std::to_string(writes.Seconds()) + " s");
  const double qps = WindowedRate(reads);
  if (args.trace) {
    Ledger ledger;
    CaptureServer(server, &layers);
    std::move(reads.calls.begin(), reads.calls.end(),
              std::back_inserter(writes.calls));
    LayOut(server, &writes.calls, &ledger);
    ReadLedger(ledger, {"client.add_run"}, &layers);
    layers.reply_bytes_per_pair = Median(reads.reply_bytes_per_pair);
    layers.oplog_bytes_per_run = Median(replay.log_bytes);
    layers.overhead_frac = OverheadFrac(writes);
    layers.oplog_fsync_p50_us = replay.oplog->fsync_histogram().Quantile(0.5);
    layers.oplog_fsync_p99_us = replay.oplog->fsync_histogram().Quantile(0.99);
    WriteSpans(args, ledger);
  }
  const FinalState final = Inspect(
      server.service(), args.work_dir + "/ingest_mixed.skls", &out);

  // Restart: stop the primary, recover it from its op-log alone, and time
  // until the first correct answer. The first recovery also checks
  // durability.
  const std::string ingest_log = oplog_path;
  std::vector<Timing> restart_s;
  std::vector<double> recover_ms;
  auto restart = [&] {
    served.Stop();
    const Stopwatch watch;
    const int64_t t0 = NowNs();
    skl::OpLog::Options log_options;
    log_options.fsync = kOpLogFsync;
    skl::RecoveredPrimary recovered =
        Must(skl::RecoverPrimary(ingest_log, ServiceOptions(), log_options),
             "recover primary");
    recover_ms.push_back(MsSince(t0));
    served.oplog = std::move(recovered.oplog);
    served.server =
        StartServer(std::move(recovered.service), served.oplog.get());
    skl::ProvenanceClient client = Connect(*served.server);
    const Query& probe = in.hot_checks[0][0];
    out.Count(Probe(client, served.ids[0], probe),
              "first answer after RecoverPrimary");
    const Timing timing = watch.Stop();
    if (recover_ms.size() == 1) {
      CheckDurability(client, served.ids, writer.live, in, &out);
    }
    return timing;
  };
  RestartRound(restart, &restart_s);
  // Set-ups below keep the ingest log: they remove only their own logs.
  oplog_path.clear();
  SetupRound(setup, &setup_s);
  RestartRound(restart, &restart_s);
  layers.recover_primary_ms = Median(recover_ms);
  layers.scheme_build_ms = Median(scheme_ms);
  layers.preload_ms = Median(preload_ms);
  Note("failed_frac", std::to_string(out.failed) + "/" +
                          std::to_string(out.attempted));
  if (!args.trace) {
    EmitEndToEnd(writes, qps, setup_s, restart_s, final, &out);
  } else {
    layers.snapshot_save_ms = final.save_ms;
    layers.snapshot_bytes = final.snapshot_bytes;
    EmitLayers(layers, &out);
  }
  served.Stop();
  return out;
}

}  // namespace perfbench
