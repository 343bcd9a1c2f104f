// The traced run's span ledger.
//
// A root span is one client call, timed at the client. Its children are the
// request's pieces replayed against each layer's public entry point right
// after the call (frame codec, in-process service, XML, plan builder, run
// labeling, op-log append) plus the server's queue and execute histograms.
// Replayed pieces did not run inside the root's interval, so they are laid
// out one after another from the root's start and clipped to their parent.
// A span's self time is its duration minus the part its children cover;
// the root's self time is what no layer accounts for, and the benchmark
// reports it as net.unaccounted_ns. Self times of one request always sum to
// its root's duration.
#ifndef SKL_PERFBENCH_LEDGER_H_
#define SKL_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;      ///< 0 for a root
  uint64_t request_id = 0;  ///< the client's trace id for the call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t measured_ns = 0;  ///< the piece as timed, before clipping
};

/// A measured piece of one request, before layout.
struct Piece {
  std::string name;
  int64_t ns = 0;
  std::vector<Piece> children;
};

/// One sampled client call: its measured interval and its pieces.
struct TracedCall {
  std::string root;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<Piece> pieces;
};

class Ledger {
 public:
  /// Lays the call's pieces out under its root span.
  void Add(const TracedCall& call);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, parallel to spans().
  std::vector<int64_t> SelfTimes() const;

  /// Self times, and measured durations, grouped by span name (ns).
  std::map<std::string, std::vector<double>> SelfTimesByName() const;
  std::map<std::string, std::vector<double>> DurationsByName() const;

  /// Writes one JSON object per span; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  void Place(const std::vector<Piece>& pieces, uint64_t parent,
             uint64_t request_id, int64_t start, int64_t end);

  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // SKL_PERFBENCH_LEDGER_H_
