// Counter/histogram consistency: the observability layer must agree with
// itself. Under a concurrent mixed workload, every per-opcode histogram
// count in the kMetrics exposition has to equal the matching ServiceStats
// query counter (one answered frame = one observation = one counted
// query), and the retired result-cache counters stay 0 with no cache
// series exposed. Runs under the TSan leg with everything else: the
// invariants only hold if the relaxed atomics in the histogram and the
// counters are actually race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/core/provenance_service.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/data_generator.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// The value of one exact series (`name{labels}` spelled in full) in a
/// Prometheus text exposition; fails the test if the series is absent.
uint64_t SeriesValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "no series " << series;
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(MetricsConsistencyTest, HistogramsAndCountersAgreeUnderLoad) {
  auto ex = testing_util::MakeRunningExample();
  RunGenerator generator(&ex.spec);
  RunGenOptions gopt;
  gopt.target_vertices = 50;
  gopt.seed = 23;
  auto generated = generator.Generate(gopt);
  ASSERT_TRUE(generated.ok());
  DataGenOptions dopt;
  dopt.seed = 5;
  DataCatalog catalog = GenerateDataCatalog(generated->run, dopt);

  auto service =
      ProvenanceService::Create(std::move(ex.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(generated->run, &catalog);
  ASSERT_TRUE(id.ok());
  const RunId run = *id;
  const VertexId n = generated->run.num_vertices();
  auto run_stats = service->Stats(run);
  ASSERT_TRUE(run_stats.ok());
  const DataItemId items = static_cast<DataItemId>(run_stats->num_items);
  ASSERT_GT(items, 0u);

  ProvenanceServer::Options options;
  options.num_threads = 4;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok());

  // Mixed concurrent workload: single reads, batch reads (counted per
  // pair, one frame), and stats polls (neither).
  constexpr int kClients = 4;
  constexpr int kRounds = 40;
  std::atomic<uint64_t> reaches_frames{0};
  std::atomic<uint64_t> batch_frames{0};
  std::atomic<uint64_t> depends_frames{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client =
          ProvenanceClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<VertexPair> pairs = {{0, 1}, {1, 2}, {2, 3}};
      for (int round = 0; round < kRounds; ++round) {
        const VertexId v = static_cast<VertexId>((c * 31 + round) % n);
        const VertexId w = static_cast<VertexId>((v * 7 + 1) % n);
        if (!client->Reaches(run, v, w).ok()) failures.fetch_add(1);
        reaches_frames.fetch_add(1);
        if (!client->ReachesBatch(run, pairs).ok()) failures.fetch_add(1);
        batch_frames.fetch_add(1);
        const DataItemId x = static_cast<DataItemId>(round % items);
        if (!client->DependsOn(run, x, (x + 1) % items).ok()) {
          failures.fetch_add(1);
        }
        depends_frames.fetch_add(1);
        if (round % 10 == 0 && !client->GetServiceStats().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0u);

  auto probe = ProvenanceClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto stats = probe->GetServiceStats();
  ASSERT_TRUE(stats.ok());
  auto text = probe->GetMetrics();
  ASSERT_TRUE(text.ok());

  // One answered frame = one histogram observation, per opcode — and the
  // queue-wait and execute histograms saw the same frames.
  EXPECT_EQ(SeriesValue(*text, "skl_server_execute_us_count{op=\"Reaches\"}"),
            reaches_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_queue_wait_us_count{op=\"Reaches\"}"),
      reaches_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_execute_us_count{op=\"ReachesBatch\"}"),
      batch_frames.load());
  EXPECT_EQ(
      SeriesValue(*text, "skl_server_execute_us_count{op=\"DependsOn\"}"),
      depends_frames.load());

  // The ServiceStats counters count per answered pair (a batch of 3 pairs
  // is 3 queries), matching what the clients issued.
  EXPECT_EQ(stats->reaches_queries,
            reaches_frames.load() + batch_frames.load() * 3);
  EXPECT_EQ(stats->depends_on_queries, depends_frames.load());
  EXPECT_EQ(stats->batch_calls, batch_frames.load());

  // The result cache is gone: its two wire fields are always 0, in
  // process and over the wire, and no cache series is exposed.
  EXPECT_EQ(stats->cache_hits, 0u);
  EXPECT_EQ(stats->cache_misses, 0u);
  const ServiceStats local = (*server)->service().service_stats();
  EXPECT_EQ(local.cache_hits, 0u);
  EXPECT_EQ(local.cache_misses, 0u);
  EXPECT_EQ(text->find("skl_cache_"), std::string::npos);

  (*server)->Shutdown();
}

}  // namespace
}  // namespace skl
