#include "perfbench/ledger.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void Ledger::Add(const TracedCall& call) {
  const uint64_t root = next_id_++;
  spans_.push_back({call.root, root, 0, call.request_id, call.start_ns,
                    call.end_ns, call.end_ns - call.start_ns});
  Place(call.pieces, root, call.request_id, call.start_ns, call.end_ns);
}

void Ledger::Place(const std::vector<Piece>& pieces, uint64_t parent,
                   uint64_t request_id, int64_t start, int64_t end) {
  int64_t cursor = start;
  for (const Piece& piece : pieces) {
    const int64_t begin = std::min(cursor, end);
    const int64_t finish = std::min(begin + std::max<int64_t>(piece.ns, 0), end);
    const uint64_t id = next_id_++;
    spans_.push_back(
        {piece.name, id, parent, request_id, begin, finish, piece.ns});
    Place(piece.children, id, request_id, begin, finish);
    cursor = finish;
  }
}

std::vector<int64_t> Ledger::SelfTimes() const {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    const Span& p = spans_[index.at(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[index.at(s.parent)].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& parts = covered[i];
    std::sort(parts.begin(), parts.end());
    int64_t union_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : parts) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) union_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = spans_[i].end_ns - spans_[i].start_ns - union_ns;
  }
  return self;
}

std::map<std::string, std::vector<double>> Ledger::SelfTimesByName() const {
  const std::vector<int64_t> self = SelfTimes();
  std::map<std::string, std::vector<double>> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name].push_back(static_cast<double>(self[i]));
  }
  return by_name;
}

std::map<std::string, std::vector<double>> Ledger::DurationsByName() const {
  std::map<std::string, std::vector<double>> by_name;
  for (const Span& s : spans_) {
    by_name[s.name].push_back(static_cast<double>(s.measured_ns));
  }
  return by_name;
}

bool Ledger::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request_id\": %llu, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"measured_ns\": %lld}\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.measured_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
