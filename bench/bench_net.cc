// bench_net: throughput and latency of the network query serving layer
// (src/net/, docs/NETWORK.md) over loopback. One server process-half, 1/2/4/8
// concurrent client connections, two client strategies:
//
//   roundtrip  one Reaches frame per query, response awaited before the next
//              — the latency-bound interactive pattern (p50/p99 reported)
//   pipelined  64 request frames written back to back, then 64 responses
//              read — the throughput pattern request pipelining enables
//
// The spread between the two is the whole point of supporting pipelining in
// the protocol; the spread between 1 and 8 connections shows how far the
// per-connection handler model scales on this machine's cores.
//
// A third mode exercises the epoll reactor at connection scale: 256/1k/4k
// open connections, almost all idle, 32 active roundtrip clients measured
// for p50/p99/qps while a churn thread connects, pings and disconnects in a
// loop. The idle population and the churn are the point — with the
// thread-per-connection model this sweep would need thousands of threads;
// the reactor serves it from Options::num_io_threads.
//
// A codec-only section runs first, with no socket: one in-process encode
// and decode of a 4096-pair ReachesBatch request frame plus its reply frame
// (net_batch_codec_us, the payload work every batch pays on both ends), and
// the CRC-32 throughput that frames every message (crc32_mb_per_sec).
//
// Environment knobs (CI uses tiny values, docs/BENCHMARKS.md the defaults):
//   SKL_BENCH_NET_QUERIES    total queries per mode point (default 20000)
//   SKL_BENCH_NET_SIZE       run size in vertices (default 2000)
//   SKL_BENCH_NET_MAX_CONNS  largest connection count (default 8)
//   SKL_BENCH_NET_CONNS      largest connection-scale level (default 4096,
//                            0 skips the connection-scale sweep)
//   SKL_BENCH_NET_ACTIVE     active clients at each level (default 32)
//   SKL_BENCH_NET_IO_THREADS reactor threads for the server (default 2)
//   SKL_BENCH_JSON           machine-readable results (bench_common.h)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/crc32.h"
#include "src/common/metrics.h"
#include "src/skl.h"

using namespace skl;         // NOLINT: bench brevity
using namespace skl::bench;  // NOLINT

namespace {

size_t EnvOr(const char* name, size_t fallback) {
  if (const char* env = std::getenv(name)) {
    return static_cast<size_t>(std::strtoull(env, nullptr, 10));
  }
  return fallback;
}

struct ModeResult {
  double seconds = 0;
  size_t queries = 0;
};

/// Raises the soft fd limit toward the hard one and returns the resulting
/// soft limit (the connection-scale sweep needs thousands of sockets).
size_t RaiseFdLimit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 1024;
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    ::getrlimit(RLIMIT_NOFILE, &lim);
  }
  return static_cast<size_t>(lim.rlim_cur);
}

/// A raw connected TCP socket that sends nothing: the idle population.
int ConnectIdle(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One batch round through the codec, as client and server run it: the
/// client encodes the request frame, the server decodes it and its pairs,
/// encodes the reply frame, and the client decodes the answers. Returns
/// the number of answers read back (so the work cannot be elided).
size_t BatchCodecRound(const std::vector<VertexPair>& pairs) {
  PayloadWriter req;
  req.Reserve(pairs.size() * 10 + 40);
  req.U64(1);  // run id
  req.U64(pairs.size());
  for (const auto& [v, w] : pairs) {
    req.U64(v);
    req.U64(w);
  }
  req.U64(0);  // read LSN
  req.U64(0);  // trace id
  Frame request{kProtocolVersion, MsgType::kReachesBatch, 1,
                std::move(req).Finish()};
  std::vector<uint8_t> wire;
  EncodeFrame(request, &wire);

  FrameDecoder server_side;
  server_side.Feed(wire);
  auto in = server_side.Next();
  SKL_CHECK(in.ok() && in->has_value());
  PayloadReader reader((*in)->payload);
  SKL_CHECK(reader.U64().ok());
  auto count = reader.U64();
  SKL_CHECK(count.ok());
  std::vector<VertexPair> decoded;
  decoded.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto v = reader.U64();
    auto w = reader.U64();
    SKL_CHECK(v.ok() && w.ok());
    decoded.push_back({static_cast<VertexId>(*v), static_cast<VertexId>(*w)});
  }
  PayloadWriter out;
  out.Reserve(kMaxVarintBytes + decoded.size());
  out.U64(decoded.size());
  for (const auto& [v, w] : decoded) out.Boolean(v <= w);
  Frame reply{kProtocolVersion, MsgType::kReply, 1, std::move(out).Finish()};
  wire.clear();
  EncodeFrame(reply, &wire);

  FrameDecoder client_side;
  client_side.Feed(wire);
  auto back = client_side.Next();
  SKL_CHECK(back.ok() && back->has_value());
  PayloadReader answers_reader((*back)->payload);
  auto answers_count = answers_reader.U64();
  SKL_CHECK(answers_count.ok());
  std::vector<bool> answers;
  SKL_CHECK(answers_reader.Booleans(*answers_count, &answers).ok());
  return answers.size();
}

/// The codec-only rows: mean microseconds per batch round and CRC-32
/// throughput, each repeated until it has run for at least 0.2 s.
void RunCodecBench(VertexId n, JsonReporter& json) {
  constexpr size_t kBatchPairs = 4096;
  std::vector<VertexPair> pairs;
  pairs.reserve(kBatchPairs);
  Rng rng(4096);
  for (size_t i = 0; i < kBatchPairs; ++i) {
    pairs.push_back({static_cast<VertexId>(rng.NextBelow(n)),
                     static_cast<VertexId>(rng.NextBelow(n))});
  }
  size_t rounds = 0, answers = 0;
  Stopwatch sw;
  while (rounds < 20 || sw.ElapsedSeconds() < 0.2) {
    answers += BatchCodecRound(pairs);
    ++rounds;
  }
  const double codec_us = sw.ElapsedSeconds() * 1e6 / rounds;
  SKL_CHECK(answers == rounds * kBatchPairs);

  std::vector<uint8_t> buffer(1 << 20);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.Next());
  size_t passes = 0;
  uint32_t crc = 0;
  sw.Restart();
  while (passes < 8 || sw.ElapsedSeconds() < 0.2) {
    crc = Crc32Update(crc, buffer);
    ++passes;
  }
  const double crc_mb_per_sec =
      passes * (buffer.size() / 1e6) / sw.ElapsedSeconds();

  std::printf("codec: %zu-pair ReachesBatch request+reply encode/decode "
              "%.1f us/round; CRC-32 %.0f MB/s\n",
              kBatchPairs, codec_us, crc_mb_per_sec);
  json.Add("net_batch_codec_us", codec_us, "us");
  json.Add("crc32_mb_per_sec", crc_mb_per_sec, "MB/s");
}

}  // namespace

int main() {
  const size_t total_queries = EnvOr("SKL_BENCH_NET_QUERIES", 20000);
  const uint32_t run_size =
      static_cast<uint32_t>(EnvOr("SKL_BENCH_NET_SIZE", 2000));
  const unsigned max_conns =
      static_cast<unsigned>(EnvOr("SKL_BENCH_NET_MAX_CONNS", 8));

  Specification spec = QblastSpec();
  GeneratedRun gen = MakeRun(spec, run_size, 7);
  auto service =
      ProvenanceService::Create(std::move(spec), SpecSchemeKind::kTcm);
  SKL_CHECK_MSG(service.ok(), service.status().ToString().c_str());
  auto id = service->AddRun(gen.run);
  SKL_CHECK_MSG(id.ok(), id.status().ToString().c_str());
  const VertexId n = gen.run.num_vertices();

  ProvenanceServer::Options server_options;
  server_options.num_threads = std::max(max_conns, 1u);
  server_options.num_io_threads =
      static_cast<unsigned>(EnvOr("SKL_BENCH_NET_IO_THREADS", 2));
  auto server =
      ProvenanceServer::Start(std::move(service).value(), server_options);
  SKL_CHECK_MSG(server.ok(), server.status().ToString().c_str());
  const uint16_t port = (*server)->port();

  JsonReporter json("bench_net");
  RunCodecBench(n, json);

  PrintHeader("network serving: Reaches over loopback, run of " +
              std::to_string(n) + " vertices");
  std::printf("%6s  %-10s %10s %12s %10s %10s\n", "conns", "mode", "queries",
              "queries/s", "p50(us)", "p99(us)");

  // Per-connection deterministic query workloads.
  const auto make_pairs = [&](unsigned conn, size_t count) {
    std::vector<VertexPair> pairs;
    pairs.reserve(count);
    Rng rng(1000 + conn);
    for (size_t i = 0; i < count; ++i) {
      pairs.push_back({static_cast<VertexId>(rng.NextBelow(n)),
                       static_cast<VertexId>(rng.NextBelow(n))});
    }
    return pairs;
  };

  const auto run_mode = [&](unsigned conns, bool pipelined) {
    const size_t per_conn = total_queries / conns;
    // The same histogram type the server's metrics endpoint serves
    // (docs/OBSERVABILITY.md): thread-safe to record from every client
    // thread, quantiles within 12.5% of exact. Bench latencies record in
    // nanoseconds; the report converts to microseconds.
    LatencyHistogram lat_hist;
    std::vector<ModeResult> results(conns);
    std::vector<ProvenanceClient> clients;
    clients.reserve(conns);
    for (unsigned c = 0; c < conns; ++c) {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      SKL_CHECK_MSG(client.ok(), client.status().ToString().c_str());
      clients.push_back(std::move(client).value());
    }
    std::vector<std::thread> threads;
    Stopwatch wall;
    for (unsigned c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        ProvenanceClient& client = clients[c];
        const std::vector<VertexPair> pairs = make_pairs(c, per_conn);
        ModeResult& result = results[c];
        Stopwatch sw;
        if (pipelined) {
          constexpr size_t kWindow = 64;
          sw.Restart();
          for (size_t off = 0; off < pairs.size(); off += kWindow) {
            const size_t len = std::min(kWindow, pairs.size() - off);
            auto answers = client.ReachesPipelined(
                *id, std::span<const VertexPair>(pairs).subspan(off, len));
            SKL_CHECK_MSG(answers.ok(), answers.status().ToString().c_str());
            result.queries += len;
          }
          result.seconds = sw.ElapsedSeconds();
        } else {
          Stopwatch total;
          for (const auto& [v, w] : pairs) {
            sw.Restart();
            auto answer = client.Reaches(*id, v, w);
            lat_hist.Record(
                static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
            SKL_CHECK_MSG(answer.ok(), answer.status().ToString().c_str());
            ++result.queries;
          }
          result.seconds = total.ElapsedSeconds();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_secs = wall.ElapsedSeconds();

    ModeResult merged;
    merged.seconds = wall_secs;
    for (ModeResult& r : results) merged.queries += r.queries;
    const double qps =
        wall_secs > 0 ? static_cast<double>(merged.queries) / wall_secs : 0;
    const double p50 = lat_hist.Quantile(0.50) / 1e3;
    const double p99 = lat_hist.Quantile(0.99) / 1e3;
    const char* mode = pipelined ? "pipelined" : "roundtrip";
    if (pipelined) {
      std::printf("%6u  %-10s %10zu %12.0f %10s %10s\n", conns, mode,
                  merged.queries, qps, "-", "-");
    } else {
      std::printf("%6u  %-10s %10zu %12.0f %10.1f %10.1f\n", conns, mode,
                  merged.queries, qps, p50, p99);
    }
    const std::string prefix =
        "net_" + std::string(mode) + "_" + std::to_string(conns) + "conn_";
    json.Add(prefix + "queries_per_sec", qps, "queries/s");
    if (!pipelined) {
      json.Add(prefix + "p50_latency", p50, "us");
      json.Add(prefix + "p99_latency", p99, "us");
    }
  };

  for (unsigned conns = 1; conns <= max_conns; conns *= 2) {
    run_mode(conns, /*pipelined=*/false);
    run_mode(conns, /*pipelined=*/true);
  }

  // ---- connection-scale sweep: mostly-idle populations + churn ----
  const size_t conn_scale_max = EnvOr("SKL_BENCH_NET_CONNS", 4096);
  const size_t active_conns = std::max<size_t>(EnvOr("SKL_BENCH_NET_ACTIVE", 32), 1);
  const size_t fd_limit = RaiseFdLimit();
  if (conn_scale_max > 0) {
    PrintHeader("connection scale: " + std::to_string(active_conns) +
                " active roundtrip clients inside an idle population, "
                "with connection churn");
    std::printf("%6s  %-10s %10s %12s %10s %10s %10s\n", "conns", "mode",
                "queries", "queries/s", "p50(us)", "p99(us)", "churned");
  }
  const auto run_conn_scale = [&](size_t level) {
    // Idle sockets + active clients + our own files + server-side fds for
    // all of them: be conservative about what fits under the fd limit.
    if (level * 2 + 64 > fd_limit) {
      std::printf("%6zu  %-10s  skipped: fd limit %zu is too low\n", level,
                  "connscale", fd_limit);
      return;
    }
    const size_t idle = level > active_conns ? level - active_conns : 0;
    std::vector<int> idle_fds;
    idle_fds.reserve(idle);
    for (size_t i = 0; i < idle; ++i) {
      const int fd = ConnectIdle(port);
      SKL_CHECK_MSG(fd >= 0, "idle connect failed");
      idle_fds.push_back(fd);
    }
    const size_t per_conn =
        std::max<size_t>(total_queries / active_conns, 1);
    LatencyHistogram lat_hist;  // shared, recorded in ns (see run_mode)
    std::vector<ModeResult> results(active_conns);
    std::vector<ProvenanceClient> clients;
    clients.reserve(active_conns);
    for (size_t c = 0; c < active_conns; ++c) {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      SKL_CHECK_MSG(client.ok(), client.status().ToString().c_str());
      clients.push_back(std::move(client).value());
    }
    std::atomic<bool> done{false};
    std::atomic<size_t> churned{0};
    // Connection churn alongside the measurement: connect, ping, close —
    // the accept/teardown path must not disturb the serving population.
    std::thread churner([&] {
      while (!done.load(std::memory_order_relaxed)) {
        auto client = ProvenanceClient::Connect("127.0.0.1", port);
        if (!client.ok()) continue;
        if (client->Ping().ok()) {
          churned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    std::vector<std::thread> threads;
    Stopwatch wall;
    for (size_t c = 0; c < active_conns; ++c) {
      threads.emplace_back([&, c] {
        ProvenanceClient& client = clients[c];
        const std::vector<VertexPair> pairs =
            make_pairs(static_cast<unsigned>(c + 100), per_conn);
        ModeResult& result = results[c];
        Stopwatch sw;
        for (const auto& [v, w] : pairs) {
          sw.Restart();
          auto answer = client.Reaches(*id, v, w);
          lat_hist.Record(static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9));
          SKL_CHECK_MSG(answer.ok(), answer.status().ToString().c_str());
          ++result.queries;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall_secs = wall.ElapsedSeconds();
    done.store(true, std::memory_order_relaxed);
    churner.join();
    for (int fd : idle_fds) ::close(fd);

    ModeResult merged;
    for (ModeResult& r : results) merged.queries += r.queries;
    const double qps =
        wall_secs > 0 ? static_cast<double>(merged.queries) / wall_secs : 0;
    const double p50 = lat_hist.Quantile(0.50) / 1e3;
    const double p99 = lat_hist.Quantile(0.99) / 1e3;
    std::printf("%6zu  %-10s %10zu %12.0f %10.1f %10.1f %10zu\n", level,
                "connscale", merged.queries, qps, p50, p99, churned.load());
    const std::string prefix =
        "net_connscale_" + std::to_string(level) + "_";
    json.Add(prefix + "queries_per_sec", qps, "queries/s");
    json.Add(prefix + "p50_latency", p50, "us");
    json.Add(prefix + "p99_latency", p99, "us");
    json.Add(prefix + "churned_conns", static_cast<double>(churned.load()),
             "conns");
  };
  for (size_t level : {size_t{256}, size_t{1024}, size_t{4096}}) {
    if (level <= conn_scale_max) run_conn_scale(level);
  }

  (*server)->Shutdown();
  return 0;
}
