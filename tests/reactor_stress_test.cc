// Connection-scale stress for the epoll reactor server (src/net/server.cc):
// a four-digit population of idle connections plus dozens of active
// pipelined clients, served by a handful of threads. Pins the properties
// the reactor exists for — thousands of sockets cost state, not threads;
// answers under full load stay bit-identical to direct service calls; and
// the graceful drain completes with the whole population still connected.
// A second test pins the split dispatch (single-key reads answered on the
// I/O thread, everything else on the pool): pipelined mixes of both kinds,
// with snapshot swaps landing mid-stream, still answer in request order
// and agree with graph reachability. Runs under TSan and ASan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/temp_path.h"
#include "src/core/provenance_service.h"
#include "src/io/workflow_xml.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/workload/run_generator.h"
#include "tests/test_util.h"

namespace skl {
namespace {

/// Open file descriptors of this process (both ends of every loopback
/// connection live here, so the count sees client and server sides).
size_t CountOpenFds() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

/// Thread count of this process, from /proc/self/status.
size_t CountThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

/// Raises the soft fd limit toward the hard one; returns the soft limit.
size_t RaiseFdLimit() {
  rlimit lim{};
  SKL_CHECK(::getrlimit(RLIMIT_NOFILE, &lim) == 0);
  if (lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
    SKL_CHECK(::getrlimit(RLIMIT_NOFILE, &lim) == 0);
  }
  return static_cast<size_t>(lim.rlim_cur);
}

/// A connected TCP socket that never writes: the idle population.
int ConnectIdle(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  SKL_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  SKL_CHECK(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  SKL_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

TEST(ReactorStressTest, ThousandIdleConnsPlusActivePipelinedClients) {
  const size_t fd_limit = RaiseFdLimit();
  // Each loopback connection costs two fds in this process; leave slack
  // for the suite's own files, the reactor fds and the active clients.
  const size_t idle_target = std::min<size_t>(1000, (fd_limit - 200) / 2);
  constexpr size_t kActiveClients = 32;

  auto example = testing_util::MakeRunningExample();
  RunGenerator generator(&example.spec);
  RunGenOptions gen_options;
  gen_options.target_vertices = 60;
  gen_options.seed = 21;
  auto gen = generator.Generate(gen_options);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  auto service =
      ProvenanceService::Create(std::move(example.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  auto id = service->AddRun(gen->run);
  ASSERT_TRUE(id.ok());
  const VertexId n = gen->run.num_vertices();

  ProvenanceServer::Options options;
  options.num_io_threads = 2;
  options.num_threads = 4;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // The whole point of the reactor: adding a thousand connections must add
  // zero threads. Snapshot the thread count with the server fully up.
  const size_t threads_before = CountThreads();
  const size_t fds_before = CountOpenFds();

  std::vector<int> idle_fds;
  idle_fds.reserve(idle_target);
  for (size_t i = 0; i < idle_target; ++i) {
    idle_fds.push_back(ConnectIdle(port));
  }
  // Let the reactor drain its accept backlog before counting.
  for (int spin = 0;
       spin < 500 &&
       (*server)->reactor_stats().connections_open < idle_target;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*server)->reactor_stats().connections_open, idle_target);
  EXPECT_EQ(CountThreads(), threads_before)
      << "idle connections must not cost threads";
  // Each connection: one client fd + one accepted server fd, plus a small
  // allowance for anything the runtime opened meanwhile.
  EXPECT_LE(CountOpenFds(), fds_before + 2 * idle_target + 64);

  // 32 active pipelined clients, answers checked bit-identical against the
  // direct in-process service, with the idle thousand still connected.
  const ProvenanceService& direct = (*server)->service();
  std::vector<VertexPair> pairs;
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w = 0; w < n; ++w) pairs.push_back({v, w});
  }
  auto expected = direct.ReachesBatch(*id, pairs);
  ASSERT_TRUE(expected.ok());

  std::vector<std::thread> workers;
  std::vector<std::string> failures(kActiveClients);
  for (size_t c = 0; c < kActiveClients; ++c) {
    workers.emplace_back([&, c] {
      auto client = ProvenanceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      auto piped = client->ReachesPipelined(*id, pairs);
      if (!piped.ok()) {
        failures[c] = piped.status().ToString();
        return;
      }
      if (*piped != *expected) {
        failures[c] = "pipelined answers diverged from direct service";
        return;
      }
      auto batch = client->ReachesBatch(*id, pairs);
      if (!batch.ok() || *batch != *expected) {
        failures[c] = "batch answers diverged from direct service";
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (size_t c = 0; c < kActiveClients; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
  }
  EXPECT_EQ(CountThreads(), threads_before)
      << "active load is served by the fixed pools, not per-conn threads";

  // Graceful drain with the idle thousand still connected: every one of
  // them must be half-closed and reaped, and the fd ledger must balance.
  auto shutdown_client = ProvenanceClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(shutdown_client.ok());
  ASSERT_TRUE(shutdown_client->Shutdown().ok());
  (*server)->Wait();
  const ReactorStats stats = (*server)->reactor_stats();
  EXPECT_EQ(stats.connections_open, 0u);
  EXPECT_GE(stats.connections_accepted, idle_target + kActiveClients);
  for (int fd : idle_fds) ::close(fd);
  // All server-side fds are gone and our client fds are closed: within a
  // small allowance we are back where we started.
  EXPECT_LE(CountOpenFds(), fds_before + 16);
}

/// A raw pipelining connection: one thread writes request frames while
/// another reads the replies back one frame at a time, so the test sees
/// every request id exactly as the server sent it.
class PipelinedConn {
 public:
  explicit PipelinedConn(uint16_t port) : fd_(ConnectIdle(port)) {}
  ~PipelinedConn() { ::close(fd_); }

  /// Appends one request frame to the unsent burst; returns its id.
  uint64_t Queue(MsgType type, PayloadWriter payload) {
    Frame frame;
    frame.type = type;
    frame.request_id = next_id_;
    frame.payload = std::move(payload).Finish();
    EncodeFrame(frame, &burst_);
    return next_id_++;
  }

  /// Sends the unsent burst; false once the connection is dead.
  bool Flush() {
    size_t off = 0;
    while (off < burst_.size()) {
      const ssize_t n = ::send(fd_, burst_.data() + off, burst_.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    burst_.clear();
    return true;
  }

  /// The next reply frame (blocking).
  Result<Frame> Next() {
    for (;;) {
      SKL_ASSIGN_OR_RETURN(std::optional<Frame> frame, decoder_.Next());
      if (frame.has_value()) return std::move(*frame);
      uint8_t buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return Status::Unavailable("connection closed mid-reply");
      decoder_.Feed({buf, static_cast<size_t>(n)});
    }
  }

  /// Unblocks a writer stuck on a peer that stopped reading.
  void Abort() { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_;
  uint64_t next_id_ = 1;  // writer thread only
  std::vector<uint8_t> burst_;
  FrameDecoder decoder_;  // reader thread only
};

PayloadWriter ReachesRequest(uint64_t run, VertexId v, VertexId w) {
  PayloadWriter req;
  req.U64(run);
  req.U64(v);
  req.U64(w);
  req.U64(0);  // min-LSN read token
  req.U64(0);  // trace id
  return req;
}

PayloadWriter BareRequest() {  // kPing, kServiceStats: the trace id alone
  PayloadWriter req;
  req.U64(0);
  return req;
}

TEST(ReactorStressTest, SplitDispatchKeepsOrderAndMatchesReachability) {
  const uint64_t seed =
      testing_util::TestSeed("ReactorSplitDispatch", 0x5eed16);
  constexpr size_t kMixers = 5;
  constexpr size_t kRequests = 1500;  // per connection, plus follow-ups
  constexpr size_t kLoads = 6;
  constexpr size_t kSlowBatchPairs = 16384;  // ~0.5 ms to answer

  // Base runs live in the service and in the snapshot the loader swaps in,
  // under the same ids, so their answers never change. Every added run is
  // one more copy of `added`, so a Reaches on any added id answers as
  // `added` does, or NotFound once a remove or a swap dropped it.
  auto example = testing_util::MakeRunningExample();
  RunGenerator generator(&example.spec);
  std::vector<::skl::Run> base;
  for (uint64_t s = 0; s < 3; ++s) {
    const uint32_t size = 40 + 20 * static_cast<uint32_t>(s);
    auto gen = generator.Generate({.target_vertices = size, .seed = 30 + s});
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    base.push_back(std::move(gen->run));
  }
  auto added_gen = generator.Generate({.target_vertices = 30, .seed = 77});
  ASSERT_TRUE(added_gen.ok());
  const ::skl::Run& added = added_gen->run;
  const std::string added_xml = WriteRunXml(added);
  const auto added_ref = testing_util::ReferenceMatrix(added);
  std::vector<std::vector<std::vector<bool>>> base_ref;
  for (const ::skl::Run& run : base) {
    base_ref.push_back(testing_util::ReferenceMatrix(run));
  }

  auto service =
      ProvenanceService::Create(std::move(example.spec), SpecSchemeKind::kTcm);
  ASSERT_TRUE(service.ok());
  std::vector<uint64_t> base_ids;
  for (const ::skl::Run& run : base) {
    auto id = service->AddRun(run);
    ASSERT_TRUE(id.ok());
    base_ids.push_back(id->value());
  }
  const std::string snapshot =
      PidQualifiedTempPath("skl_reactor_split_dispatch", ".skls");
  ASSERT_TRUE(service->SaveSnapshot(snapshot).ok());

  ProvenanceServer::Options options;
  options.num_io_threads = 2;
  options.num_threads = 3;
  auto server = ProvenanceServer::Start(std::move(service).value(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const uint16_t port = (*server)->port();

  // What each queued request must get back, in queue order.
  enum class Op { kPing, kReaches, kBatch, kAddRun, kAddedReaches, kRemove,
                  kStats, kLoad };
  struct Expect {
    uint64_t id = 0;
    Op op = Op::kPing;
    size_t base = 0;  // index into base/base_ref
    VertexId v = 0, w = 0;
    std::vector<VertexPair> pairs;
    bool last = false;  // the connection's final request
  };
  // Checks one reply; returns a failure description or "".
  auto check = [&](const Expect& e, const Frame& reply,
                   std::vector<uint64_t>* added_ids) -> std::string {
    const std::string where = "request " + std::to_string(e.id);
    if (reply.request_id != e.id) {
      return where + ": reply carries request id " +
             std::to_string(reply.request_id) + " (out of order)";
    }
    if (reply.type == MsgType::kError) {
      uint64_t trace = 0;
      const Status error = DecodeErrorPayload(reply.payload, &trace);
      // An added run may be gone: removed, or dropped by a snapshot swap.
      const bool may_be_gone =
          e.op == Op::kAddedReaches || e.op == Op::kRemove;
      if (may_be_gone && error.code() == StatusCode::kNotFound) return "";
      return where + ": " + error.ToString();
    }
    if (reply.type != MsgType::kReply) return where + ": not a kReply";
    PayloadReader reader(reply.payload);
    switch (e.op) {
      case Op::kPing:
      case Op::kLoad:
        return reader.ExpectEnd().ok() ? "" : where + ": non-empty reply";
      case Op::kReaches:
      case Op::kAddedReaches: {
        auto answer = reader.Boolean();
        const bool want = e.op == Op::kReaches ? base_ref[e.base][e.v][e.w]
                                                : added_ref[e.v][e.w];
        if (!answer.ok() || *answer != want) {
          return where + ": Reaches(" + std::to_string(e.v) + ", " +
                 std::to_string(e.w) + ") disagrees with reachability";
        }
        return "";
      }
      case Op::kBatch: {
        auto count = reader.U64();
        std::vector<bool> answers;
        if (!count.ok() || *count != e.pairs.size() ||
            !reader.Booleans(e.pairs.size(), &answers).ok()) {
          return where + ": malformed batch reply";
        }
        for (size_t i = 0; i < e.pairs.size(); ++i) {
          const auto [v, w] = e.pairs[i];
          if (answers[i] != base_ref[e.base][v][w]) {
            return where + ": batch pair " + std::to_string(i) +
                   " disagrees with reachability";
          }
        }
        return "";
      }
      case Op::kAddRun: {
        auto id = reader.U64();
        if (!id.ok() || *id == 0) return where + ": no run id";
        for (uint64_t b : base_ids) {
          if (*id == b) return where + ": AddRun reused a base run id";
        }
        added_ids->push_back(*id);
        return "";
      }
      case Op::kRemove:
        return reader.U64().ok() ? "" : where + ": no ack LSN";
      case Op::kStats: {
        auto runs = reader.U64();
        if (!runs.ok() || *runs < base.size()) {
          return where + ": ServiceStats lost a base run";
        }
        return "";
      }
    }
    return where + ": unexpected op";
  };

  // One connection's life: a writer thread sends a seeded request mix in
  // short bursts (four frames on average) without waiting for replies;
  // this thread checks the replies in order. Run ids learned from AddRun
  // replies flow back to the writer, which reads and removes them. Now and
  // then the writer lets the replies catch up, sends one slow pool-bound
  // frame alone and, right behind it, a burst of single reads: those
  // arrive while the pool task runs, the case where an I/O-thread
  // dispatcher must wait its turn.
  auto drive = [&](size_t conn, bool loader) -> std::string {
    PipelinedConn pc(port);
    std::mutex mu;
    std::condition_variable answered;
    std::deque<Expect> expects;      // queued, not yet answered (by id)
    std::vector<uint64_t> learned;  // AddRun ids the writer has not used
    bool reader_done = false;
    auto writer_body = [&] {
      std::mt19937_64 rng(seed + conn);
      auto pick = [&](size_t n) {
        return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
      };
      auto queue = [&](Expect e, MsgType type, PayloadWriter payload) {
        std::lock_guard lock(mu);  // queued before its bytes can leave
        e.id = pc.Queue(type, std::move(payload));
        expects.push_back(std::move(e));
      };
      size_t loads_left = loader ? kLoads : 0;
      for (size_t i = 0; i < kRequests; ++i) {
        if (loads_left > 0 && i % (kRequests / kLoads) == kRequests / 20) {
          PayloadWriter load;
          load.Str(snapshot);
          load.U64(0);
          queue({0, Op::kLoad}, MsgType::kLoadSnapshot, std::move(load));
          --loads_left;
        }
        std::vector<uint64_t> ids;
        {
          std::lock_guard lock(mu);
          ids.swap(learned);
        }
        for (uint64_t id : ids) {
          Expect e{0, Op::kAddedReaches};
          e.v = static_cast<VertexId>(pick(added.num_vertices()));
          e.w = static_cast<VertexId>(pick(added.num_vertices()));
          queue(e, MsgType::kReaches, ReachesRequest(id, e.v, e.w));
          PayloadWriter remove;
          remove.U64(id);
          remove.U64(0);
          queue({0, Op::kRemove}, MsgType::kRemoveRun, std::move(remove));
        }
        const size_t roll = pick(100);
        Expect e{0, Op::kReaches};
        e.base = pick(base.size());
        const size_t n = base[e.base].num_vertices();
        if (roll < 2) {
          if (!pc.Flush()) return;
          {
            std::unique_lock lock(mu);
            answered.wait(lock,
                          [&] { return expects.empty() || reader_done; });
          }
          e.op = Op::kBatch;
          PayloadWriter req;
          req.U64(base_ids[e.base]);
          req.U64(kSlowBatchPairs);
          for (size_t k = 0; k < kSlowBatchPairs; ++k) {
            e.pairs.push_back({static_cast<VertexId>(pick(n)),
                               static_cast<VertexId>(pick(n))});
            req.U64(e.pairs.back().first);
            req.U64(e.pairs.back().second);
          }
          req.U64(0);
          req.U64(0);
          queue(std::move(e), MsgType::kReachesBatch, std::move(req));
          if (!pc.Flush()) return;
          // Let the I/O thread hand the batch to the pool before the reads
          // arrive; the batch takes far longer than this to answer.
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          for (int k = 0; k < 8; ++k) {
            Expect read{0, Op::kReaches};
            read.base = pick(base.size());
            const size_t m = base[read.base].num_vertices();
            read.v = static_cast<VertexId>(pick(m));
            read.w = static_cast<VertexId>(pick(m));
            queue(read, MsgType::kReaches,
                  ReachesRequest(base_ids[read.base], read.v, read.w));
          }
          if (!pc.Flush()) return;
        } else if (roll < 60) {
          e.v = static_cast<VertexId>(pick(n));
          e.w = static_cast<VertexId>(pick(n));
          queue(e, MsgType::kReaches,
                ReachesRequest(base_ids[e.base], e.v, e.w));
        } else if (roll < 75) {
          e.op = Op::kBatch;
          PayloadWriter req;
          const size_t count = 1 + pick(64);
          req.U64(base_ids[e.base]);
          req.U64(count);
          for (size_t k = 0; k < count; ++k) {
            e.pairs.push_back({static_cast<VertexId>(pick(n)),
                               static_cast<VertexId>(pick(n))});
            req.U64(e.pairs.back().first);
            req.U64(e.pairs.back().second);
          }
          req.U64(0);
          req.U64(0);
          queue(std::move(e), MsgType::kReachesBatch, std::move(req));
        } else if (roll < 85) {
          queue({0, Op::kPing}, MsgType::kPing, BareRequest());
        } else if (roll < 90) {
          queue({0, Op::kStats}, MsgType::kServiceStats, BareRequest());
        } else if (!loader && roll < 95) {
          PayloadWriter req;
          req.Str(added_xml);
          req.U64(0);
          queue({0, Op::kAddRun}, MsgType::kAddRun, std::move(req));
        } else {
          e.v = 0;  // the source vertex: reaches most of the run
          e.w = static_cast<VertexId>(pick(n));
          queue(e, MsgType::kReaches,
                ReachesRequest(base_ids[e.base], e.v, e.w));
        }
        if (pick(4) == 0 && !pc.Flush()) return;
      }
      // A final Ping marks the end for the reader.
      queue({0, Op::kPing, 0, 0, 0, {}, /*last=*/true}, MsgType::kPing,
            BareRequest());
      pc.Flush();
    };
    std::thread writer(writer_body);
    std::string failure;
    for (bool last = false; !last && failure.empty();) {
      Result<Frame> reply = pc.Next();
      if (!reply.ok()) {
        failure = reply.status().ToString();
        break;
      }
      Expect e;
      {
        std::lock_guard lock(mu);
        if (expects.empty()) {
          failure = "a reply no request asked for";
          break;
        }
        e = std::move(expects.front());
        expects.pop_front();
      }
      std::vector<uint64_t> ids;
      failure = check(e, *reply, &ids);
      last = e.last;
      std::lock_guard lock(mu);
      learned.insert(learned.end(), ids.begin(), ids.end());
      if (expects.empty()) answered.notify_all();
    }
    {
      std::lock_guard lock(mu);
      reader_done = true;
    }
    answered.notify_all();
    if (!failure.empty()) pc.Abort();
    writer.join();
    return failure;
  };

  std::vector<std::string> failures(kMixers + 1);
  std::vector<std::thread> threads;
  for (size_t c = 0; c <= kMixers; ++c) {
    threads.emplace_back(
        [&, c] { failures[c] = drive(c, /*loader=*/c == kMixers); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t c = 0; c <= kMixers; ++c) {
    EXPECT_TRUE(failures[c].empty()) << "connection " << c << ": "
                                     << failures[c];
  }
  (*server)->Shutdown();
  EXPECT_EQ((*server)->reactor_stats().connections_open, 0u);
  std::filesystem::remove(snapshot);
}

}  // namespace
}  // namespace skl
