// sklctl: command-line front end over the XML formats, built on the
// service-level API (skl::ProvenanceService).
//
//   sklctl demo-spec > spec.xml          write the running-example spec
//   sklctl demo-run spec.xml > run.xml   simulate a run of a spec
//   sklctl validate spec.xml run.xml     conformance-check a run
//   sklctl label spec.xml run.xml        label and answer stdin queries
//                                        ("<from-id> <to-id>" per line)
//   sklctl stats spec.xml run.xml        print plan/label statistics
//   sklctl ingest-dir spec.xml runs/     bulk-ingest every run XML in a
//                                        directory on a thread pool
//   sklctl save spec.xml runs/ out.skls  ingest a directory and save the
//                                        whole service as a snapshot
//   sklctl load out.skls                 restore a snapshot and answer
//                                        stdin queries ("<run-id> <u> <v>")
//
// Network serving (docs/NETWORK.md):
//
//   sklctl serve spec.xml [runs/]        serve a (optionally pre-ingested)
//                                        service over TCP; --port=0 picks an
//                                        ephemeral port, printed on stdout
//   sklctl reaches   --connect=H:P <run-id> <u> <v>   remote reachability
//   sklctl stats     --connect=H:P [run-id]           service counters /
//                                                     one run's stats
//   sklctl add-run   --connect=H:P run.xml            remote ingestion
//   sklctl list-runs --connect=H:P                    remote registry
//   sklctl shutdown  --connect=H:P                    graceful server drain
//   sklctl save      --connect=H:P out.skls           server-side snapshot
//
// Observability (docs/OBSERVABILITY.md):
//
//   sklctl serve --slow-query-threshold-us=N ...
//       record any request slower than N microseconds (queue + execute) in
//       the server's bounded slow-query ring buffer
//   sklctl metrics --connect=H:P
//       scrape the server's metrics in Prometheus text exposition format
//   sklctl slow-queries --connect=H:P
//       dump the slow-query ring buffer (trace id, opcode, run, shard,
//       queue/execute breakdown), oldest first
//   sklctl stats --connect=H:P --json
//       the service counters as one JSON object (stable keys = the
//       ServiceStats field names)
//   Every remote subcommand accepts --trace-id=N: the 64-bit token stamped
//   on each request it sends, echoed in the server's slow-query log and
//   error replies.
//
// Replication (docs/REPLICATION.md):
//
//   sklctl serve --oplog=ops.log spec.xml [runs/]
//       serve with a durable op-log attached: every mutation is logged
//       before it is acked, and if ops.log already exists the service is
//       first rebuilt from it (crash recovery) — the spec.xml argument is
//       then checked against the log's recorded specification
//   sklctl replicate --connect=H:P [--listen=H:P]
//       start a read replica of the primary at --connect: bootstraps from
//       a snapshot, serves reads (ships with LSN read-your-writes tokens),
//       tails the primary's op stream until shut down
//
// The remote stats subcommand prints the server's replication LSN and lag
// (how far a replica trails the primary it tails; 0 on a primary).
//
// label/stats/ingest-dir/save/serve accept
// --scheme=tcm|bfs|dfs|interval|tree-cover|chain|2hop to pick the skeleton
// labeling scheme (default tcm); ingest-dir, save, load and serve accept
// --threads=N (0 = one per hardware thread), --shards=N (registry lock
// stripes, rounded up to a power of two) and ingest-dir --fail-fast
// (all-or-nothing batch). load rejects --scheme: the scheme identity is
// part of the snapshot.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/skl.h"
#include "src/workload/real_workflows.h"
#include "src/workload/run_generator.h"

using namespace skl;  // NOLINT: example brevity

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

Result<std::string> ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound(std::string("cannot open ") + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Result<Specification> LoadSpec(const char* path) {
  SKL_ASSIGN_OR_RETURN(std::string xml, ReadFile(path));
  return ReadSpecificationXml(xml);
}

Result<Run> LoadRun(const char* path) {
  SKL_ASSIGN_OR_RETURN(std::string xml, ReadFile(path));
  return ReadRunXml(xml);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: sklctl demo-spec\n"
      "       sklctl demo-run <spec.xml> [target_size] [seed]\n"
      "       sklctl validate <spec.xml> <run.xml>\n"
      "       sklctl label [--scheme=<name>] <spec.xml> <run.xml>\n"
      "       sklctl stats [--scheme=<name>] <spec.xml> <run.xml>\n"
      "       sklctl ingest-dir [--scheme=<name>] [--threads=<n>] "
      "[--shards=<n>]\n"
      "                         [--fail-fast] <spec.xml> <run-dir>\n"
      "       sklctl save [--scheme=<name>] [--threads=<n>] [--shards=<n>]\n"
      "                   <spec.xml> <run-dir> <out.snapshot>\n"
      "       sklctl load [--threads=<n>] [--shards=<n>] [--mmap] "
      "<snapshot>\n"
      "       sklctl serve [--scheme=<name>] [--threads=<n>] "
      "[--shards=<n>]\n"
      "                    [--num-io-threads=<n>] [--port=<p>] "
      "[--oplog=<path>]\n"
      "                    [--slow-query-threshold-us=<n>] [--mmap] "
      "<spec.xml> [run-dir]\n"
      "       sklctl replicate --connect=<host:port> "
      "[--listen=<host:port>]\n"
      "       sklctl reaches --connect=<host:port> <run-id> <from> <to>\n"
      "       sklctl stats --connect=<host:port> [--json] [run-id]\n"
      "       sklctl add-run --connect=<host:port> <run.xml>\n"
      "       sklctl list-runs --connect=<host:port>\n"
      "       sklctl shutdown --connect=<host:port>\n"
      "       sklctl save --connect=<host:port> <out.snapshot>\n"
      "       sklctl load-snapshot --connect=<host:port> "
      "<server-path.skls>\n"
      "       sklctl metrics --connect=<host:port>\n"
      "       sklctl slow-queries --connect=<host:port>\n"
      "       sklctl apply-delta --connect=<host:port> "
      "add-module <name> <from-csv> <to-csv>\n"
      "       sklctl apply-delta --connect=<host:port> "
      "remove-module <name>\n"
      "       sklctl apply-delta --connect=<host:port> "
      "add-edge <from> <to>\n"
      "       sklctl apply-delta --connect=<host:port> "
      "remove-edge <from> <to>\n"
      "         (module lists are comma-separated; \"-\" means empty)\n"
      "remote subcommands also accept --trace-id=<n> (slow-query log "
      "attribution)\n"
      "scheme names: tcm (default), bfs, dfs, interval, tree-cover, "
      "chain, 2hop\n");
  return 2;
}

/// Regular files in `dir`, sorted by name; the shared discovery step of
/// ingest-dir and save.
Result<std::vector<std::string>> ScanRunDir(const char* dir) {
  // error_code forms throughout: a stat failure mid-iteration (entry
  // deleted under us, unsearchable subpath) must report, not terminate.
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec), end;
  if (ec) {
    return Status::NotFound(std::string("cannot open directory ") + dir +
                            ": " + ec.message());
  }
  std::vector<std::string> paths;
  for (; it != end; it.increment(ec)) {
    std::error_code stat_ec;
    if (it->is_regular_file(stat_ec) && !stat_ec) {
      paths.push_back(it->path().string());
    }
  }
  if (ec) {  // a failed increment lands on `end` with ec set
    return Status::Internal(std::string("while scanning ") + dir + ": " +
                            ec.message());
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    return Status::NotFound(std::string("no files in ") + dir);
  }
  return paths;
}

/// Bulk-ingests every regular file in `dir` (sorted by name, parsed as run
/// XML) through AddRunsParallel, reporting per-file outcomes + throughput.
int IngestDir(Specification spec, SpecSchemeKind scheme_kind,
              ProvenanceService::Options options, const char* dir) {
  auto scanned = ScanRunDir(dir);
  if (!scanned.ok()) return Fail(scanned.status());
  std::vector<std::string> paths = std::move(scanned).value();

  // Parse failures drop out of `runs`; the report loop below re-derives the
  // run-to-path mapping by skipping entries with a parse error.
  std::vector<Run> runs;
  std::vector<std::string> parse_errors(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    auto run = LoadRun(paths[i].c_str());
    if (!run.ok()) {
      parse_errors[i] = run.status().ToString();
      continue;
    }
    runs.push_back(std::move(run).value());
  }

  auto service =
      ProvenanceService::Create(std::move(spec), scheme_kind, options);
  if (!service.ok()) return Fail(service.status());

  Stopwatch sw;
  std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
  const double seconds = sw.ElapsedSeconds();

  size_t ok = 0;
  uint64_t vertices = 0;
  for (size_t i = 0, r = 0; i < paths.size(); ++i) {
    if (!parse_errors[i].empty()) {
      std::printf("%-40s PARSE ERROR: %s\n", paths[i].c_str(),
                  parse_errors[i].c_str());
      continue;
    }
    const Result<RunId>& id = ids[r];
    if (id.ok()) {
      auto stats = service->Stats(*id);
      std::printf("%-40s run %llu (%u vertices, %u-bit labels)\n",
                  paths[i].c_str(),
                  static_cast<unsigned long long>(id->value()),
                  stats.ok() ? stats->num_vertices : 0,
                  stats.ok() ? stats->label_bits : 0);
      ++ok;
      vertices += runs[r].num_vertices();
    } else {
      std::printf("%-40s FAILED: %s\n", paths[i].c_str(),
                  id.status().ToString().c_str());
    }
    ++r;
  }
  std::printf(
      "\ningested %zu/%zu runs (%llu vertices) in %.2f ms "
      "on %u threads: %.0f runs/s\n",
      ok, paths.size(), static_cast<unsigned long long>(vertices),
      seconds * 1e3, ThreadPool::Resolve(options.num_threads),
      seconds > 0 ? static_cast<double>(ok) / seconds : 0.0);
  return ok == paths.size() ? 0 : 1;
}

/// `sklctl save`: ingest every run XML in a directory, then persist the
/// whole service (spec + scheme identity + every labeled run) as one
/// snapshot file. Strict: a snapshot is a durability artifact, so any parse
/// or labeling failure aborts the save instead of dropping runs silently.
int Save(Specification spec, SpecSchemeKind scheme_kind,
         ProvenanceService::Options options, const char* dir,
         const char* out_path) {
  auto paths = ScanRunDir(dir);
  if (!paths.ok()) return Fail(paths.status());

  std::vector<Run> runs;
  runs.reserve(paths->size());
  for (const std::string& path : *paths) {
    auto run = LoadRun(path.c_str());
    if (!run.ok()) {
      std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                   run.status().ToString().c_str());
      return 1;
    }
    runs.push_back(std::move(run).value());
  }

  options.fail_fast = true;  // all-or-nothing, see above
  auto service =
      ProvenanceService::Create(std::move(spec), scheme_kind, options);
  if (!service.ok()) return Fail(service.status());

  Stopwatch sw;
  std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
  // Under fail-fast, siblings of the real failure report Cancelled; name
  // the run that actually failed, not the first casualty.
  size_t failed = ids.size();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].ok()) continue;
    if (ids[i].status().code() != StatusCode::kCancelled) {
      failed = i;
      break;
    }
    if (failed == ids.size()) failed = i;  // Cancelled-only fallback
  }
  if (failed != ids.size()) {
    std::fprintf(stderr, "error: %s: %s\n", (*paths)[failed].c_str(),
                 ids[failed].status().ToString().c_str());
    return 1;
  }
  const double ingest_secs = sw.ElapsedSeconds();

  sw.Restart();
  Status saved = service->SaveSnapshot(out_path);
  if (!saved.ok()) return Fail(saved);
  const double save_secs = sw.ElapsedSeconds();

  std::error_code ec;
  const auto bytes = std::filesystem::file_size(out_path, ec);
  std::printf(
      "saved %zu runs (scheme %s) to %s: %.2f ms ingest + %.2f ms save"
      ", %llu bytes\n",
      ids.size(), SpecSchemeKindName(scheme_kind), out_path,
      ingest_secs * 1e3, save_secs * 1e3,
      ec ? 0ULL : static_cast<unsigned long long>(bytes));
  return 0;
}

/// `sklctl load`: restore a snapshot, print what came back, and answer
/// "<run-id> <from> <to>" reachability queries from stdin. The scheme is
/// part of the snapshot; runtime knobs (threads) are not and pass through.
int Load(const char* path, ProvenanceService::Options options,
         bool use_mmap) {
  Stopwatch sw;
  auto service =
      ProvenanceService::LoadSnapshot(path, options, {.use_mmap = use_mmap});
  if (!service.ok()) return Fail(service.status());
  const double load_secs = sw.ElapsedSeconds();

  std::vector<RunId> ids = service->ListRuns();
  uint64_t vertices = 0;
  std::string run_lines;
  for (RunId id : ids) {
    auto stats = service->Stats(id);
    if (!stats.ok()) continue;
    vertices += stats->num_vertices;
    char line[128];
    std::snprintf(line, sizeof(line),
                  "  run %llu: %u vertices, %zu items, %u-bit labels%s\n",
                  static_cast<unsigned long long>(id.value()),
                  stats->num_vertices, stats->num_items, stats->label_bits,
                  stats->imported ? " (imported)" : "");
    run_lines += line;
  }
  // "via mmap" only when the runs actually view the mapping — a v1
  // snapshot or an SKL_NO_MMAP/mapping fallback reports "via copy" even
  // under --mmap, which is what the CI smoke legs assert.
  std::printf("restored %s in %.2f ms: scheme %s, %u spec modules, "
              "%zu runs, %llu run vertices via %s\n",
              path, load_secs * 1e3,
              std::string(service->scheme().name()).c_str(),
              service->spec().graph().num_vertices(), ids.size(),
              static_cast<unsigned long long>(vertices),
              service->loaded_via_mmap() ? "mmap" : "copy");
  std::fputs(run_lines.c_str(), stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    uint64_t run_value;
    VertexId u, v;
    if (!(iss >> run_value >> u >> v)) {
      std::printf("? bad query: %s\n", line.c_str());
      continue;
    }
    auto reach = service->Reaches(RunId::FromValue(run_value), u, v);
    if (!reach.ok()) {
      std::printf("? %s\n", reach.status().ToString().c_str());
      continue;
    }
    std::printf("run %llu: %u -> %u : %s\n",
                static_cast<unsigned long long>(run_value), u, v,
                *reach ? "reachable" : "unreachable");
  }
  return 0;
}

/// `sklctl serve`: build a service over the spec (optionally pre-ingesting
/// every run XML in a directory, all-or-nothing), then serve it over TCP
/// until a remote shutdown frame drains it. The bound address is printed
/// first — the CI smoke job parses "serving on <addr>:<port>" to discover
/// an ephemeral port. With --oplog, every mutation is durably logged
/// before it is acked; an existing log is replayed first (crash recovery),
/// and its recorded scheme wins over --scheme.
int Serve(Specification spec, SpecSchemeKind scheme_kind,
          ProvenanceService::Options options, uint16_t port,
          unsigned num_io_threads, const std::string& oplog_path,
          bool mmap_snapshots, uint32_t slow_query_threshold_us,
          const char* dir) {
  std::unique_ptr<OpLog> oplog;
  std::optional<ProvenanceService> service;
  if (!oplog_path.empty() && std::filesystem::exists(oplog_path)) {
    auto recovered = RecoverPrimary(oplog_path, options);
    if (!recovered.ok()) return Fail(recovered.status());
    // The log's recorded specification is authoritative; a mismatched
    // spec.xml is a typo'd invocation, not a request to relabel. The
    // comparison is against the *creation* spec: replayed spec deltas may
    // have moved the head past it.
    if (WriteSpecificationXml(recovered->service.base_spec()) !=
        WriteSpecificationXml(spec)) {
      std::fprintf(stderr,
                   "error: %s was recorded against a different "
                   "specification than the given spec.xml\n",
                   oplog_path.c_str());
      return 1;
    }
    service = std::move(recovered->service);
    oplog = std::move(recovered->oplog);
    std::printf("recovered %zu runs from %s (lsn %llu)\n",
                service->num_runs(), oplog_path.c_str(),
                static_cast<unsigned long long>(oplog->last_lsn()));
  } else {
    auto created =
        ProvenanceService::Create(std::move(spec), scheme_kind, options);
    if (!created.ok()) return Fail(created.status());
    service = std::move(created).value();
    if (!oplog_path.empty()) {
      auto opened =
          OpLog::Open(oplog_path, WriteSpecificationXml(service->base_spec()),
                      SpecSchemeKindName(scheme_kind));
      if (!opened.ok()) return Fail(opened.status());
      oplog = std::move(opened).value();
      // Attach before pre-ingestion so directory runs are logged too.
      service->AttachOpLog(oplog.get());
    }
  }

  if (dir != nullptr) {
    auto paths = ScanRunDir(dir);
    if (!paths.ok()) return Fail(paths.status());
    std::vector<Run> runs;
    runs.reserve(paths->size());
    for (const std::string& path : *paths) {
      auto run = LoadRun(path.c_str());
      if (!run.ok()) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      runs.push_back(std::move(run).value());
    }
    std::vector<Result<RunId>> ids = service->AddRunsParallel(runs);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!ids[i].ok()) {
        std::fprintf(stderr, "error: %s: %s\n", (*paths)[i].c_str(),
                     ids[i].status().ToString().c_str());
        return 1;
      }
    }
  }

  ProvenanceServer::Options server_options;
  server_options.port = port;
  server_options.oplog = oplog.get();
  // --mmap: kLoadSnapshot swaps restore through the zero-copy path.
  server_options.mmap_snapshots = mmap_snapshots;
  // --slow-query-threshold-us: requests slower than this (queue + execute)
  // land in the slow-query ring buffer; 0 keeps the log disabled.
  server_options.slow_query_threshold_us = slow_query_threshold_us;
  // --threads sizes the connection-handler pool too; 0 keeps the server's
  // own default (8), which is a better serving concurrency than one-per-
  // core on small machines.
  if (options.num_threads != 0) {
    server_options.num_threads = options.num_threads;
  }
  // --num-io-threads sizes the epoll reactor (socket multiplexing); 0
  // keeps the server's default of one I/O thread, plenty below many
  // thousands of connections.
  if (num_io_threads != 0) {
    server_options.num_io_threads = num_io_threads;
  }
  auto server = ProvenanceServer::Start(std::move(*service), server_options);
  if (!server.ok()) return Fail(server.status());
  std::printf("serving on %s:%u (scheme %s, %zu runs)\n",
              (*server)->options().bind_address.c_str(), (*server)->port(),
              std::string((*server)->service().scheme().name()).c_str(),
              (*server)->service().num_runs());
  std::fflush(stdout);  // the port line must reach a redirected pipe now
  (*server)->Wait();
  std::printf("server drained, exiting\n");
  return 0;
}

/// `sklctl replicate`: a read replica of the primary at `connect`,
/// listening on `listen` ("host:port"; port 0 picks an ephemeral one).
/// Prints its bound address in the same greppable shape as serve, then
/// serves until a remote shutdown frame drains it.
int Replicate(const std::string& connect, const std::string& listen,
              ProvenanceService::Options service_options) {
  const size_t colon = connect.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == connect.size()) {
    std::fprintf(stderr, "error: --connect expects <host:port>, got '%s'\n",
                 connect.c_str());
    return Usage();
  }
  const std::string primary_host = connect.substr(0, colon);
  char* end = nullptr;
  const unsigned long primary_port =
      std::strtoul(connect.c_str() + colon + 1, &end, 10);
  if (*end != '\0' || primary_port == 0 || primary_port > 65535) {
    std::fprintf(stderr, "error: --connect expects <host:port>, got '%s'\n",
                 connect.c_str());
    return Usage();
  }

  ReadReplica::Options options;
  options.service = service_options;
  if (!listen.empty()) {
    const size_t sep = listen.rfind(':');
    if (sep == std::string::npos || sep == 0 || sep + 1 == listen.size()) {
      std::fprintf(stderr, "error: --listen expects <host:port>, got '%s'\n",
                   listen.c_str());
      return Usage();
    }
    options.listen_address = listen.substr(0, sep);
    end = nullptr;
    const unsigned long port = std::strtoul(listen.c_str() + sep + 1, &end, 10);
    if (*end != '\0' || port > 65535) {
      std::fprintf(stderr, "error: --listen expects <host:port>, got '%s'\n",
                   listen.c_str());
      return Usage();
    }
    options.port = static_cast<uint16_t>(port);
  }
  if (service_options.num_threads != 0) {
    options.num_threads = service_options.num_threads;
  }

  auto replica = ReadReplica::Start(
      primary_host, static_cast<uint16_t>(primary_port), options);
  if (!replica.ok()) return Fail(replica.status());
  std::printf("replica serving on %s:%u (primary %s, lsn %llu)\n",
              options.listen_address.c_str(), (*replica)->port(),
              connect.c_str(),
              static_cast<unsigned long long>((*replica)->applied_lsn()));
  std::fflush(stdout);  // CI parses the port line from a redirected pipe
  (*replica)->server().Wait();
  (*replica)->Stop();
  std::printf("replica drained, exiting\n");
  return 0;
}

void PrintRunStatsLine(uint64_t id, const RunStats& stats) {
  std::printf("run %llu: %u vertices, %zu items, %u-bit labels%s\n",
              static_cast<unsigned long long>(id), stats.num_vertices,
              stats.num_items, stats.label_bits,
              stats.imported ? " (imported)" : "");
}

/// Remote `sklctl stats`: with a run-id argument, that run's stats; without,
/// the service-wide cumulative counters (the new ServiceStats RPC). With
/// `json`, the counters as one JSON object whose keys are exactly the
/// ServiceStats field names — the stable machine contract the CI smoke leg
/// parses.
int RemoteStats(ProvenanceClient& client, const std::vector<const char*>& args,
                bool json) {
  if (args.size() == 1) {
    if (json) {
      std::fprintf(stderr,
                   "error: --json prints the service-wide counters; a "
                   "run-id argument is not accepted\n");
      return Usage();
    }
    const uint64_t run = std::strtoull(args[0], nullptr, 10);
    auto stats = client.Stats(RunId::FromValue(run));
    if (!stats.ok()) return Fail(stats.status());
    PrintRunStatsLine(run, *stats);
    return 0;
  }
  auto stats = client.GetServiceStats();
  if (!stats.ok()) return Fail(stats.status());
  const auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  if (json) {
    std::printf(
        "{\"num_runs\": %llu, \"reaches_queries\": %llu, "
        "\"depends_on_queries\": %llu, \"module_data_queries\": %llu, "
        "\"data_module_queries\": %llu, \"batch_calls\": %llu, "
        "\"runs_ingested\": %llu, \"runs_imported\": %llu, "
        "\"runs_removed\": %llu, \"bulk_batches\": %llu, "
        "\"snapshot_saves\": %llu, \"replication_lsn\": %llu, "
        "\"replication_target_lsn\": %llu, \"connections_open\": %llu, "
        "\"connections_accepted\": %llu, \"connections_timed_out\": %llu, "
        "\"connections_backpressured\": %llu, \"epoll_wakeups\": %llu, "
        "\"accept_backoffs\": %llu, \"spec_epoch\": %llu}\n",
        u(stats->num_runs), u(stats->reaches_queries),
        u(stats->depends_on_queries), u(stats->module_data_queries),
        u(stats->data_module_queries), u(stats->batch_calls),
        u(stats->runs_ingested), u(stats->runs_imported),
        u(stats->runs_removed), u(stats->bulk_batches),
        u(stats->snapshot_saves), u(stats->replication_lsn),
        u(stats->replication_target_lsn), u(stats->connections_open),
        u(stats->connections_accepted), u(stats->connections_timed_out),
        u(stats->connections_backpressured), u(stats->epoll_wakeups),
        u(stats->accept_backoffs), u(stats->spec_epoch));
    return 0;
  }
  std::printf("runs registered:      %llu\n", u(stats->num_runs));
  std::printf("reaches queries:      %llu\n", u(stats->reaches_queries));
  std::printf("depends-on queries:   %llu\n", u(stats->depends_on_queries));
  std::printf("module<-data queries: %llu\n", u(stats->module_data_queries));
  std::printf("data<-module queries: %llu\n", u(stats->data_module_queries));
  std::printf("batch calls:          %llu\n", u(stats->batch_calls));
  std::printf("runs ingested:        %llu\n", u(stats->runs_ingested));
  std::printf("runs imported:        %llu\n", u(stats->runs_imported));
  std::printf("runs removed:         %llu\n", u(stats->runs_removed));
  std::printf("bulk batches:         %llu\n", u(stats->bulk_batches));
  std::printf("snapshot saves:       %llu\n", u(stats->snapshot_saves));
  std::printf("replication lsn:      %llu\n", u(stats->replication_lsn));
  std::printf("replication lag:      %llu\n",
              u(stats->replication_target_lsn - stats->replication_lsn));
  std::printf("connections open:     %llu\n", u(stats->connections_open));
  std::printf("connections accepted: %llu\n",
              u(stats->connections_accepted));
  std::printf("conns timed out:      %llu\n",
              u(stats->connections_timed_out));
  std::printf("backpressure trips:   %llu\n",
              u(stats->connections_backpressured));
  std::printf("epoll wakeups:        %llu\n", u(stats->epoll_wakeups));
  std::printf("accept backoffs:      %llu\n", u(stats->accept_backoffs));
  std::printf("spec epoch:           %llu\n", u(stats->spec_epoch));
  return 0;
}

/// Parses a comma-separated module-name list; "-" means the empty list
/// (positional grammar needs an explicit empty marker).
std::vector<std::string> SplitModuleList(const char* csv) {
  std::vector<std::string> out;
  const std::string s(csv);
  if (s == "-") return out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// `sklctl apply-delta` argument grammar -> SpecDelta; arity/kind misuse
/// returns no value (the caller prints Usage and exits 2, before dialing).
std::optional<SpecDelta> ParseDeltaArgs(
    const std::vector<const char*>& args) {
  if (args.empty()) return std::nullopt;
  const std::string op = args[0];
  SpecDelta delta;
  if (op == "add-module") {
    if (args.size() != 4) return std::nullopt;
    delta.kind = SpecDelta::Kind::kAddModule;
    delta.module = args[1];
    delta.from = SplitModuleList(args[2]);
    delta.to = SplitModuleList(args[3]);
    return delta;
  }
  if (op == "remove-module") {
    if (args.size() != 2) return std::nullopt;
    delta.kind = SpecDelta::Kind::kRemoveModule;
    delta.module = args[1];
    return delta;
  }
  if (op == "add-edge" || op == "remove-edge") {
    if (args.size() != 3) return std::nullopt;
    delta.kind = op == "add-edge" ? SpecDelta::Kind::kAddEdge
                                  : SpecDelta::Kind::kRemoveEdge;
    delta.edge_from = args[1];
    delta.edge_to = args[2];
    return delta;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  // Split argv into the command, options, and positional arguments.
  std::string cmd;
  SpecSchemeKind scheme_kind = SpecSchemeKind::kTcm;
  bool scheme_given = false;
  unsigned num_threads = 0;
  unsigned num_io_threads = 0;
  unsigned num_shards = 0;
  bool shards_given = false;
  bool fail_fast = false;
  bool use_mmap = false;
  uint16_t port = 0;
  std::string connect;
  std::string oplog_path;
  std::string listen;
  uint64_t trace_id = 0;
  bool trace_id_given = false;
  bool json_output = false;
  uint32_t slow_query_threshold_us = 0;
  bool slow_threshold_given = false;
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scheme=", 9) == 0) {
      auto parsed = ParseSpecSchemeKind(argv[i] + 9);
      if (!parsed.ok()) {  // malformed invocation: usage + exit 2
        std::fprintf(stderr, "error: %s\n",
                     parsed.status().ToString().c_str());
        return Usage();
      }
      scheme_kind = *parsed;
      scheme_given = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      // Strict parse: reject non-numeric and absurd values up front — a
      // negative number wrapped through strtoul would ask the pool for
      // ~4 billion workers.
      const char* value = argv[i] + 10;
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' ||
          parsed > 1024) {
        std::fprintf(stderr,
                     "error: --threads expects an integer in [0, 1024], "
                     "got '%s'\n",
                     value);
        return Usage();
      }
      num_threads = static_cast<unsigned>(parsed);
    } else if (std::strncmp(argv[i], "--num-io-threads=", 17) == 0) {
      // Reactor thread count for serve; same strict-parse discipline, with
      // the server's own clamp as the bound.
      const char* value = argv[i] + 17;
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' || parsed < 1 ||
          parsed > 64) {
        std::fprintf(stderr,
                     "error: --num-io-threads expects an integer in "
                     "[1, 64], got '%s'\n",
                     value);
        return Usage();
      }
      num_io_threads = static_cast<unsigned>(parsed);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      // Same strict parse as --threads; the bound is the registry's own
      // clamp, so CLI and library can never drift.
      const char* value = argv[i] + 9;
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' || parsed < 1 ||
          parsed > RunRegistry::kMaxShards) {
        std::fprintf(stderr,
                     "error: --shards expects an integer in [1, %zu], "
                     "got '%s'\n",
                     RunRegistry::kMaxShards, value);
        return Usage();
      }
      num_shards = static_cast<unsigned>(parsed);
      shards_given = true;
    } else if (std::strncmp(argv[i], "--slow-query-threshold-us=", 26) == 0) {
      // Same strict parse as --threads; 0 means "disabled", so the usable
      // range is the option's full uint32 domain.
      const char* value = argv[i] + 26;
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' ||
          parsed > UINT32_MAX) {
        std::fprintf(stderr,
                     "error: --slow-query-threshold-us expects an integer "
                     "in [0, %llu], got '%s'\n",
                     static_cast<unsigned long long>(UINT32_MAX), value);
        return Usage();
      }
      slow_query_threshold_us = static_cast<uint32_t>(parsed);
      slow_threshold_given = true;
    } else if (std::strncmp(argv[i], "--trace-id=", 11) == 0) {
      // The full uint64 domain is valid (clients pick random ids); only
      // the spelling is checked.
      const char* value = argv[i] + 11;
      char* end = nullptr;
      errno = 0;
      unsigned long long parsed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' || errno != 0) {
        std::fprintf(stderr,
                     "error: --trace-id expects an unsigned 64-bit "
                     "integer, got '%s'\n",
                     value);
        return Usage();
      }
      trace_id = parsed;
      trace_id_given = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_output = true;
    } else if (std::strcmp(argv[i], "--fail-fast") == 0) {
      fail_fast = true;
    } else if (std::strcmp(argv[i], "--mmap") == 0) {
      use_mmap = true;
    } else if (std::strncmp(argv[i], "--port=", 7) == 0) {
      const char* value = argv[i] + 7;
      char* end = nullptr;
      unsigned long parsed = std::strtoul(value, &end, 10);
      if (*value == '\0' || *end != '\0' || value[0] == '-' ||
          parsed > 65535) {
        std::fprintf(stderr,
                     "error: --port expects an integer in [0, 65535], "
                     "got '%s'\n",
                     value);
        return Usage();
      }
      port = static_cast<uint16_t>(parsed);
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect = argv[i] + 10;
      if (connect.empty()) {
        std::fprintf(stderr, "error: --connect expects <host:port>\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--oplog=", 8) == 0) {
      oplog_path = argv[i] + 8;
      if (oplog_path.empty()) {
        std::fprintf(stderr, "error: --oplog expects a file path\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      listen = argv[i] + 9;
      if (listen.empty()) {
        std::fprintf(stderr, "error: --listen expects <host:port>\n");
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[i]);
      return Usage();
    } else if (cmd.empty()) {
      cmd = argv[i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (cmd.empty()) return Usage();

  ProvenanceService::Options service_options;
  service_options.num_threads = num_threads;
  service_options.fail_fast = fail_fast;
  if (shards_given) service_options.num_shards = num_shards;

  // --connect routes a command to a remote server; only these speak it.
  const bool remote_capable = cmd == "reaches" || cmd == "stats" ||
                              cmd == "add-run" || cmd == "list-runs" ||
                              cmd == "shutdown" || cmd == "save" ||
                              cmd == "load-snapshot" || cmd == "replicate" ||
                              cmd == "metrics" || cmd == "slow-queries" ||
                              cmd == "apply-delta";
  if (!connect.empty() && !remote_capable) {
    std::fprintf(stderr,
                 "error: --connect is only accepted by reaches, stats, "
                 "add-run, list-runs, shutdown, save, load-snapshot, "
                 "metrics, slow-queries, apply-delta and replicate\n");
    return Usage();
  }
  if (trace_id_given && (connect.empty() || cmd == "replicate")) {
    std::fprintf(stderr,
                 "error: --trace-id is only accepted by the remote "
                 "subcommands (reaches, stats, add-run, list-runs, "
                 "shutdown, save, load-snapshot, metrics, slow-queries, "
                 "apply-delta)\n");
    return Usage();
  }
  if (json_output && cmd != "stats") {
    std::fprintf(stderr, "error: --json is only accepted by stats\n");
    return Usage();
  }
  if (json_output && connect.empty()) {
    std::fprintf(stderr,
                 "error: --json requires stats --connect=<host:port>\n");
    return Usage();
  }
  if (slow_threshold_given && cmd != "serve") {
    std::fprintf(stderr,
                 "error: --slow-query-threshold-us is only accepted by "
                 "serve\n");
    return Usage();
  }
  if (use_mmap && cmd != "load" && cmd != "serve") {
    std::fprintf(stderr, "error: --mmap is only accepted by load and serve\n");
    return Usage();
  }
  if (!oplog_path.empty() && cmd != "serve") {
    std::fprintf(stderr, "error: --oplog is only accepted by serve\n");
    return Usage();
  }
  if (num_io_threads != 0 && cmd != "serve") {
    std::fprintf(stderr,
                 "error: --num-io-threads is only accepted by serve\n");
    return Usage();
  }
  if (!listen.empty() && cmd != "replicate") {
    std::fprintf(stderr, "error: --listen is only accepted by replicate\n");
    return Usage();
  }

  if (cmd == "serve") {
    if (args.empty() || args.size() > 2) return Usage();
    if (fail_fast) {
      std::fprintf(stderr,
                   "error: serve pre-ingestion is always all-or-nothing; "
                   "--fail-fast is not accepted\n");
      return Usage();
    }
    auto spec = LoadSpec(args[0]);
    if (!spec.ok()) return Fail(spec.status());
    return Serve(std::move(spec).value(), scheme_kind, service_options, port,
                 num_io_threads, oplog_path, use_mmap,
                 slow_query_threshold_us,
                 args.size() > 1 ? args[1] : nullptr);
  }

  if (cmd == "replicate") {
    if (!args.empty()) return Usage();
    if (connect.empty()) {
      std::fprintf(stderr,
                   "error: replicate requires --connect=<host:port>\n");
      return Usage();
    }
    if (scheme_given || fail_fast) {
      std::fprintf(stderr,
                   "error: a replica mirrors the primary's scheme and "
                   "performs no ingestion; --scheme/--fail-fast are not "
                   "accepted\n");
      return Usage();
    }
    return Replicate(connect, listen, service_options);
  }

  if (cmd == "reaches" || cmd == "add-run" || cmd == "list-runs" ||
      cmd == "shutdown" || cmd == "load-snapshot" || cmd == "metrics" ||
      cmd == "slow-queries" || cmd == "apply-delta" ||
      (cmd == "stats" && !connect.empty()) ||
      (cmd == "save" && !connect.empty())) {
    if (connect.empty()) {
      std::fprintf(stderr, "error: %s requires --connect=<host:port>\n",
                   cmd.c_str());
      return Usage();
    }
    // Arity before dialing: misuse must exit 2 even when nothing listens.
    if ((cmd == "metrics" || cmd == "slow-queries") && !args.empty()) {
      std::fprintf(stderr, "error: %s takes no positional arguments\n",
                   cmd.c_str());
      return Usage();
    }
    std::optional<SpecDelta> delta;
    if (cmd == "apply-delta") {
      delta = ParseDeltaArgs(args);
      if (!delta.has_value()) {
        std::fprintf(stderr,
                     "error: apply-delta takes add-module <name> <from-csv> "
                     "<to-csv>, remove-module <name>, add-edge <from> <to> "
                     "or remove-edge <from> <to>\n");
        return Usage();
      }
    }
    auto client = ProvenanceClient::ConnectHostPort(connect);
    if (!client.ok()) return Fail(client.status());
    client->set_trace_id(trace_id);

    if (cmd == "apply-delta") {
      auto epoch = client->ApplySpecDelta(*delta);
      if (!epoch.ok()) return Fail(epoch.status());
      std::printf("spec epoch %llu\n",
                  static_cast<unsigned long long>(*epoch));
      return 0;
    }
    if (cmd == "metrics") {
      auto text = client->GetMetrics();
      if (!text.ok()) return Fail(text.status());
      std::fputs(text->c_str(), stdout);
      return 0;
    }
    if (cmd == "slow-queries") {
      auto entries = client->SlowQueries();
      if (!entries.ok()) return Fail(entries.status());
      for (const SlowQueryEntry& e : *entries) {
        std::printf(
            "trace %llu op %s run %llu shard %llu: queue %llu us + "
            "exec %llu us = %llu us\n",
            static_cast<unsigned long long>(e.trace_id),
            MsgTypeName(static_cast<MsgType>(e.opcode)),
            static_cast<unsigned long long>(e.run_id),
            static_cast<unsigned long long>(e.shard),
            static_cast<unsigned long long>(e.queue_us),
            static_cast<unsigned long long>(e.exec_us),
            static_cast<unsigned long long>(e.queue_us + e.exec_us));
      }
      std::printf("%zu slow queries\n", entries->size());
      return 0;
    }
    if (cmd == "reaches") {
      if (args.size() != 3) return Usage();
      const uint64_t run = std::strtoull(args[0], nullptr, 10);
      const VertexId u =
          static_cast<VertexId>(std::strtoul(args[1], nullptr, 10));
      const VertexId v =
          static_cast<VertexId>(std::strtoul(args[2], nullptr, 10));
      auto reach = client->Reaches(RunId::FromValue(run), u, v);
      if (!reach.ok()) return Fail(reach.status());
      std::printf("run %llu: %u -> %u : %s\n",
                  static_cast<unsigned long long>(run), u, v,
                  *reach ? "reachable" : "unreachable");
      return 0;
    }
    if (cmd == "stats") {
      if (args.size() > 1) return Usage();
      return RemoteStats(*client, args, json_output);
    }
    if (cmd == "add-run") {
      if (args.size() != 1) return Usage();
      auto xml = ReadFile(args[0]);
      if (!xml.ok()) return Fail(xml.status());
      auto id = client->AddRunXml(*xml);
      if (!id.ok()) return Fail(id.status());
      auto stats = client->Stats(*id);
      if (!stats.ok()) return Fail(stats.status());
      PrintRunStatsLine(id->value(), *stats);
      return 0;
    }
    if (cmd == "list-runs") {
      if (!args.empty()) return Usage();
      auto ids = client->ListRuns();
      if (!ids.ok()) return Fail(ids.status());
      for (RunId id : *ids) {
        auto stats = client->Stats(id);
        if (!stats.ok()) return Fail(stats.status());
        PrintRunStatsLine(id.value(), *stats);
      }
      std::printf("%zu runs\n", ids->size());
      return 0;
    }
    if (cmd == "save") {
      if (args.size() != 1) return Usage();
      Status saved = client->SaveSnapshot(args[0]);
      if (!saved.ok()) return Fail(saved);
      std::printf("server saved snapshot to %s\n", args[0]);
      return 0;
    }
    if (cmd == "load-snapshot") {
      // Server-side swap: the path names a snapshot on the *server's*
      // filesystem; whether it restores via mmap is the server's
      // --mmap/mmap_snapshots setting, not a client choice.
      if (args.size() != 1) return Usage();
      Status swapped = client->LoadSnapshot(args[0]);
      if (!swapped.ok()) return Fail(swapped);
      std::printf("server loaded snapshot %s\n", args[0]);
      return 0;
    }
    // shutdown
    if (!args.empty()) return Usage();
    Status down = client->Shutdown();
    if (!down.ok()) return Fail(down);
    std::printf("server acknowledged shutdown\n");
    return 0;
  }

  if (cmd == "demo-spec") {
    if (!args.empty()) {
      std::fprintf(stderr, "error: demo-spec takes no arguments\n");
      return Usage();
    }
    auto spec = BuildRunningExampleSpec();
    if (!spec.ok()) return Fail(spec.status());
    std::fputs(WriteSpecificationXml(*spec).c_str(), stdout);
    return 0;
  }

  if (cmd == "demo-run") {
    if (args.empty() || args.size() > 3) return Usage();
    auto spec = LoadSpec(args[0]);
    if (!spec.ok()) return Fail(spec.status());
    RunGenerator generator(&spec.value());
    RunGenOptions opt;
    opt.target_vertices =
        args.size() > 1
            ? static_cast<uint32_t>(std::strtoul(args[1], nullptr, 10))
            : 100;
    opt.seed = args.size() > 2 ? std::strtoull(args[2], nullptr, 10) : 1;
    auto gen = generator.Generate(opt);
    if (!gen.ok()) return Fail(gen.status());
    std::fputs(WriteRunXml(gen->run).c_str(), stdout);
    return 0;
  }

  if (cmd == "ingest-dir") {
    if (args.size() != 2) return Usage();
    auto spec = LoadSpec(args[0]);
    if (!spec.ok()) return Fail(spec.status());
    return IngestDir(std::move(spec).value(), scheme_kind, service_options,
                     args[1]);
  }

  if (cmd == "save") {
    if (args.size() != 3) return Usage();
    if (fail_fast) {
      std::fprintf(stderr,
                   "error: save is always all-or-nothing; --fail-fast is "
                   "not accepted\n");
      return Usage();
    }
    auto spec = LoadSpec(args[0]);
    if (!spec.ok()) return Fail(spec.status());
    return Save(std::move(spec).value(), scheme_kind, service_options,
                args[1], args[2]);
  }

  if (cmd == "load") {
    if (args.size() != 1) return Usage();
    if (scheme_given) {
      std::fprintf(stderr,
                   "error: load restores the scheme stored in the snapshot; "
                   "--scheme is not accepted\n");
      return Usage();
    }
    if (fail_fast) {
      std::fprintf(stderr,
                   "error: load performs no bulk ingestion; --fail-fast is "
                   "not accepted\n");
      return Usage();
    }
    return Load(args[0], service_options, use_mmap);
  }

  if (cmd == "validate" || cmd == "label" || cmd == "stats") {
    if (args.size() != 2) return Usage();
    auto spec = LoadSpec(args[0]);
    if (!spec.ok()) return Fail(spec.status());
    auto run = LoadRun(args[1]);
    if (!run.ok()) return Fail(run.status());

    auto recovered = ConstructPlan(*spec, *run);
    if (cmd == "validate") {
      if (!recovered.ok()) {
        std::printf("NOT CONFORMING: %s\n",
                    recovered.status().ToString().c_str());
        return 1;
      }
      std::printf("OK: run conforms to the specification\n");
      return 0;
    }
    if (!recovered.ok()) return Fail(recovered.status());
    const size_t plan_nodes = recovered->plan.num_nodes();

    auto service = ProvenanceService::Create(std::move(spec).value(),
                                             scheme_kind, service_options);
    if (!service.ok()) return Fail(service.status());
    auto id = service->AddRunWithPlan(*run, recovered->plan,
                                      std::move(recovered->origin));
    if (!id.ok()) return Fail(id.status());

    if (cmd == "stats") {
      auto stats = service->Stats(*id);
      if (!stats.ok()) return Fail(stats.status());
      std::printf("scheme:              %s\n",
                  SpecSchemeKindName(scheme_kind));
      std::printf("run vertices:        %u\n", run->num_vertices());
      std::printf("run edges:           %zu\n", run->num_edges());
      std::printf("plan nodes:          %zu\n", plan_nodes);
      std::printf("nonempty + nodes:    %u\n", stats->num_nonempty_plus);
      std::printf("bits per label:      %u (3x%u context + %u origin)\n",
                  stats->label_bits, stats->context_bits / 3,
                  stats->origin_bits);
      return 0;
    }
    // label: answer "<from> <to>" queries from stdin.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream iss(line);
      VertexId u, v;
      if (!(iss >> u >> v) || u >= run->num_vertices() ||
          v >= run->num_vertices()) {
        std::printf("? bad query: %s\n", line.c_str());
        continue;
      }
      auto reach = service->Reaches(*id, u, v);
      if (!reach.ok()) return Fail(reach.status());
      std::printf("%u -> %u : %s\n", u, v,
                  *reach ? "reachable" : "unreachable");
    }
    return 0;
  }
  std::fprintf(stderr, "error: unknown subcommand '%s'\n", cmd.c_str());
  return Usage();
}
