#include "perfbench/inputs.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "bench/bench_common.h"
#include "src/common/random.h"
#include "src/graph/algorithms.h"
#include "src/workload/data_generator.h"

namespace perfbench {

namespace {

// Sub-seed streams, one per kind of generated input.
enum Stream : uint64_t {
  kHotRunSeeds = 1,
  kHotCatalogSeeds,
  kHotKeySeeds,
  kHotStreamSeeds,
  kColdRunSeeds,
  kColdBatchSeeds,
  kIngestRunSeeds,
  kIngestScheduleSeeds,
  kCheckSeeds,
};

void DigestRun(const skl::Run& run, Digest* digest) {
  digest->U64(run.num_vertices());
  for (skl::VertexId v = 0; v < run.num_vertices(); ++v) {
    digest->Str(run.ModuleNameOf(v));
    for (skl::VertexId w : run.graph().OutNeighbors(v)) digest->U64(w);
  }
}

void DigestCatalog(const skl::DataCatalog& catalog, Digest* digest) {
  digest->U64(catalog.size());
  for (skl::DataItemId x = 0; x < catalog.size(); ++x) {
    digest->U64(catalog.OutputOf(x));
    for (skl::VertexId r : catalog.InputsOf(x)) digest->U64(r);
  }
}

void DigestQuery(const Query& q, Digest* digest) {
  digest->U64(q.run);
  digest->U64(static_cast<uint64_t>(q.kind));
  digest->U64(q.a);
  digest->U64(q.b);
  digest->U64(q.expected);
}

skl::Run MakeQblastRun(const skl::Specification& spec, uint32_t vertices,
                       uint64_t seed) {
  return skl::bench::MakeRun(spec, vertices, seed).run;
}

/// Uniform Reaches queries on one run, answered by the oracle.
std::vector<Query> UniformChecks(const skl::Run& run, uint32_t run_index,
                                 uint32_t count, uint64_t seed) {
  const Oracle oracle(run);
  skl::Rng rng(seed);
  std::vector<Query> checks;
  for (uint32_t i = 0; i < count; ++i) {
    Query q;
    q.run = run_index;
    q.a = static_cast<uint32_t>(rng.NextBelow(run.num_vertices()));
    q.b = static_cast<uint32_t>(rng.NextBelow(run.num_vertices()));
    q.expected = oracle.Reaches(q.a, q.b);
    checks.push_back(q);
  }
  return checks;
}

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double s) : cdf_(n) {
    double total = 0;
    for (uint32_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Sample(skl::Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Oracle::Oracle(const skl::Run& run)
    : closure(skl::TransitiveClosure(run.graph())) {}

bool Oracle::DependsOn(const skl::DataCatalog& catalog, skl::DataItemId x,
                       skl::DataItemId x_from) const {
  const skl::VertexId writer = catalog.OutputOf(x);
  for (skl::VertexId reader : catalog.InputsOf(x_from)) {
    if (Reaches(reader, writer)) return true;
  }
  return false;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
               index * 0x94d049bb133111ebULL + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Digest::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
}

HotInputs MakeHotInputs(uint64_t seed, unsigned clients, Digest* digest) {
  HotInputs in{skl::bench::QblastSpec(), {}, {}, {}, {}};
  std::vector<Oracle> oracles;
  for (uint32_t r = 0; r < Sizes::kHotRuns; ++r) {
    in.runs.push_back(MakeQblastRun(in.spec, Sizes::kHotRunVertices,
                                    SubSeed(seed, kHotRunSeeds, r)));
    skl::DataGenOptions data;
    data.seed = SubSeed(seed, kHotCatalogSeeds, r);
    in.catalogs.push_back(skl::GenerateDataCatalog(in.runs.back(), data));
    oracles.emplace_back(in.runs.back());
    DigestRun(in.runs.back(), digest);
    DigestCatalog(in.catalogs.back(), digest);
  }
  skl::Rng rng(SubSeed(seed, kHotKeySeeds));
  for (uint32_t k = 0; k < Sizes::kHotKeys; ++k) {
    Query q;
    q.run = static_cast<uint32_t>(rng.NextBelow(Sizes::kHotRuns));
    const skl::DataCatalog& catalog = in.catalogs[q.run];
    if (rng.NextBool(Sizes::kHotDependsOnShare) && catalog.size() > 0) {
      q.kind = QueryKind::kDependsOn;
      q.a = static_cast<uint32_t>(rng.NextBelow(catalog.size()));
      q.b = static_cast<uint32_t>(rng.NextBelow(catalog.size()));
      q.expected = oracles[q.run].DependsOn(catalog, q.a, q.b);
    } else {
      const uint32_t n = in.runs[q.run].num_vertices();
      q.a = static_cast<uint32_t>(rng.NextBelow(n));
      q.b = static_cast<uint32_t>(rng.NextBelow(n));
      q.expected = oracles[q.run].Reaches(q.a, q.b);
    }
    in.keys.push_back(q);
    DigestQuery(q, digest);
  }
  const ZipfSampler zipf(Sizes::kHotKeys, Sizes::kHotZipfS);
  for (unsigned c = 0; c < clients; ++c) {
    skl::Rng stream_rng(SubSeed(seed, kHotStreamSeeds, c));
    std::vector<uint32_t> stream(Sizes::kHotStreamLength);
    for (uint32_t& key : stream) {
      key = zipf.Sample(stream_rng);
      digest->U64(key);
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

skl::Specification ColdSpec() { return skl::bench::SyntheticSpec(); }

ColdInputs MakeColdInputs(
    uint64_t seed, unsigned clients, Digest* digest,
    const std::function<void(std::vector<skl::Run>)>& sink) {
  const skl::Specification spec = ColdSpec();
  ColdInputs in;
  skl::Rng rng(SubSeed(seed, kColdBatchSeeds));
  const uint32_t total = Sizes::kColdBatches + Sizes::kColdReplayBatches;
  std::vector<Batch> all(total);
  std::vector<std::vector<uint32_t>> by_run(Sizes::kColdRuns);
  for (uint32_t b = 0; b < total; ++b) {
    all[b].run = static_cast<uint32_t>(rng.NextBelow(Sizes::kColdRuns));
    by_run[all[b].run].push_back(b);
  }
  constexpr size_t kChunk = 64;
  std::vector<skl::Run> chunk;
  for (uint32_t r = 0; r < Sizes::kColdRuns; ++r) {
    skl::Run run = skl::bench::MakeRun(spec, Sizes::kColdRunVertices,
                                       SubSeed(seed, kColdRunSeeds, r))
                       .run;
    DigestRun(run, digest);
    if (!by_run[r].empty()) {
      const Oracle oracle(run);
      const uint32_t n = run.num_vertices();
      for (uint32_t b : by_run[r]) {
        Batch& batch = all[b];
        for (uint32_t i = 0; i < Sizes::kBatchPairs; ++i) {
          const auto v = static_cast<skl::VertexId>(rng.NextBelow(n));
          const auto w = static_cast<skl::VertexId>(rng.NextBelow(n));
          batch.pairs.push_back({v, w});
          batch.expected.push_back(oracle.Reaches(v, w));
        }
      }
    }
    chunk.push_back(std::move(run));
    if (chunk.size() == kChunk || r + 1 == Sizes::kColdRuns) {
      sink(std::move(chunk));
      chunk.clear();
    }
  }
  for (uint32_t b = 0; b < total; ++b) {
    digest->U64(all[b].run);
    for (const auto& [v, w] : all[b].pairs) {
      digest->U64(v);
      digest->U64(w);
    }
  }
  in.batches.assign(std::make_move_iterator(all.begin()),
                    std::make_move_iterator(all.begin() +
                                            Sizes::kColdBatches));
  in.replay_batches.assign(
      std::make_move_iterator(all.begin() + Sizes::kColdBatches),
      std::make_move_iterator(all.end()));
  for (unsigned c = 0; c < clients; ++c) {
    std::vector<uint32_t> stream(Sizes::kColdBatches);
    for (uint32_t i = 0; i < stream.size(); ++i) stream[i] = i;
    skl::Rng stream_rng(SubSeed(seed, kColdBatchSeeds, 1 + c));
    stream_rng.Shuffle(&stream);
    for (uint32_t b : stream) digest->U64(b);
    in.streams.push_back(std::move(stream));
  }
  return in;
}

IngestInputs MakeIngestInputs(uint64_t seed, double seconds, Digest* digest) {
  IngestInputs in{MakeHotInputs(seed, /*clients=*/1, digest), {}, {}, {},
                  {}, {}};
  for (uint32_t r = 0; r < Sizes::kHotRuns; ++r) {
    in.hot_checks.push_back(UniformChecks(in.hot.runs[r], r,
                                          Sizes::kChecksPerRun,
                                          SubSeed(seed, kCheckSeeds, r)));
    for (const Query& q : in.hot_checks.back()) DigestQuery(q, digest);
  }
  for (uint32_t p = 0; p < Sizes::kIngestPoolRuns; ++p) {
    in.pool.push_back(MakeQblastRun(in.hot.spec, Sizes::kIngestRunVertices,
                                    SubSeed(seed, kIngestRunSeeds, p)));
    DigestRun(in.pool.back(), digest);
    in.checks.push_back(UniformChecks(
        in.pool.back(), p, Sizes::kChecksPerRun,
        SubSeed(seed, kCheckSeeds, Sizes::kHotRuns + p)));
    for (const Query& q : in.checks.back()) DigestQuery(q, digest);
  }
  // Each delta pair grafts a fresh module between the spec's source and
  // sink and removes it again, so the pre-generated runs always match the
  // head specification.
  const skl::Digraph& g = in.hot.spec.graph();
  std::string source, sink;
  for (skl::VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.InDegree(v) == 0 && source.empty()) source = in.hot.spec.ModuleName(v);
    if (g.OutDegree(v) == 0) sink = in.hot.spec.ModuleName(v);
  }
  skl::Rng rng(SubSeed(seed, kIngestScheduleSeeds));
  uint32_t next_pool = 0;
  const auto writes =
      static_cast<uint32_t>(Sizes::kIngestWritesPerSecond * seconds);
  for (uint32_t i = 1; i <= writes; ++i) {
    WriteOp op;
    if (i % Sizes::kDeltaPairEvery == 0) {
      op.kind = WriteKind::kDeltaPair;
      op.item = static_cast<uint32_t>(in.deltas.size() / 2);
      skl::SpecDelta graft;
      graft.kind = skl::SpecDelta::Kind::kAddModule;
      graft.module = "perfbench_graft" + std::to_string(op.item);
      graft.from = {source};
      graft.to = {sink};
      skl::SpecDelta ungraft;
      ungraft.kind = skl::SpecDelta::Kind::kRemoveModule;
      ungraft.module = graft.module;
      in.deltas.push_back(std::move(graft));
      in.deltas.push_back(std::move(ungraft));
    } else if (i % Sizes::kRemoveImportEvery == 0) {
      op.kind = WriteKind::kRemoveImport;
      op.item = static_cast<uint32_t>(rng.NextBelow(Sizes::kHotRuns));
    } else {
      op.item = next_pool++ % Sizes::kIngestPoolRuns;
    }
    digest->U64(static_cast<uint64_t>(op.kind));
    digest->U64(op.item);
    in.schedule.push_back(op);
  }
  for (const skl::SpecDelta& d : in.deltas) {
    const std::vector<uint8_t> bytes = skl::SerializeSpecDelta(d);
    digest->Bytes(bytes.data(), bytes.size());
  }
  return in;
}

}  // namespace perfbench
