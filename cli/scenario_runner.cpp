// scenario_runner — execute one fne::Scenario, a fault sweep, or a whole
// Campaign from the command line.
//
// The CLI face of the scenario/campaign layers (DESIGN.md §6, §8): every
// topology and fault model in the registries is reachable from flags.
// Every batch runs through the one campaign pipeline — scenario×rep
// jobs on an ExecutorPool over the process-wide EngineCache: a JSON
// campaign file as is, a single scenario (its repetitions or one --sweep)
// as a one-entry campaign.
//
//   scenario_runner --list
//       show registered topologies, fault models, and named scenarios
//   scenario_runner --scenario=mesh-random [--reps=3] [--seed=7]
//       run a named preset (overrides apply on top)
//   scenario_runner --topology=hypercube --topo-params=dims=8
//       --fault=high_degree --fault-params=frac=0.1
//       --kind=node --reps=3 --verify --expansion
//       run an ad-hoc scenario
//   scenario_runner --scenario=mesh-random --metrics=mesh_span,embedding_quality
//       additionally compute registered metrics (api/metrics.hpp) at
//       their default params; see --list for names
//   scenario_runner --scenario=mesh-random --sweep=p
//       --sweep-values=0.05,0.15,0.25 [--sweep-mode=monotone]
//       sweep one fault param (monotone mode chains survivors downward —
//       the fault model must declare the param monotone, see --list)
//   scenario_runner --campaign=campaigns/smoke.json [--threads=4]
//       run every scenario of a campaign file; one aggregated report
//   scenario_runner --campaign=catalog [--reps=2]
//       the built-in scenario catalog as a campaign (CI smoke)
//   scenario_runner --campaign=FILE --store=DIR [--store-stats]
//       run the campaign through a persistent ResultStore (DESIGN.md
//       §11): cells already in DIR are served from disk bit-identically,
//       misses are computed and committed.  --resume is --store with the
//       default directory .fne-store — rerun a killed campaign and only
//       the missing cells recompute.  --store-stats prints the hit/miss
//       split afterwards.  --payload=FILE writes the DETERMINISTIC
//       report payload (to_json(false)) for golden comparisons
//       (reproduce/validate.sh).  All four are campaign-only flags.
//   scenario_runner --scenario=can-churn --churn-steps=40
//       additionally drive ongoing churn, re-pruning every round through
//       one persistent engine (a standalone ScenarioRunner)
//   scenario_runner --campaign=FILE --serve[=PORT] [--workers=N]
//       distributed execution (DESIGN.md §12): serve the campaign's jobs
//       to TCP workers (bare --serve picks an ephemeral port, printed to
//       stderr; --bind=HOST picks the interface).  --workers=N
//       additionally spawns N in-process workers — the one-command
//       spelling of a distributed run.  --threads sets how many
//       coordinator threads compute jobs locally from the start; they
//       also back up jobs that workers hold, so a dead or hung worker
//       delays nothing and with zero workers the run degrades to exactly
//       the local runner.  Combines with --store/--payload/--store-stats;
//       the deterministic payload is byte-identical to a local run for
//       any worker count or fault pattern.  A "dist:" telemetry line is
//       printed after the run.
//   scenario_runner --campaign=FILE --connect=HOST:PORT [--worker-name=X]
//       worker mode: pull jobs from a coordinator serving the SAME
//       campaign file (checked via plan fingerprint at handshake),
//       compute them on this process's engine cache, stream results
//       back.  Exit 0 after the coordinator reports the campaign done
//       or, having answered, is gone (a broken session's one retry
//       fails); 1 if none answered within --connect-attempts tries (a
//       refused port, or one serving something else); 2 on campaign
//       mismatch.  Workers may be killed and restarted at any time.
//   scenario_runner --daemon[=PORT] [--bind=HOST] [--service-workers=N]
//       [--queue-depth=D] [--queue-deadline-ms=MS] [--max-request-bytes=B]
//       [--cache-budget=MB] [--port-file=PATH]
//       scenario service (DESIGN.md §13): a resident daemon executing
//       campaign requests from many clients over one warm EngineCache.
//       Bare --daemon picks an ephemeral port (printed to stderr;
//       --port-file additionally writes it for scripts).  --threads sets
//       the executor width per request, --service-workers how many
//       requests run concurrently, --queue-depth/--queue-deadline-ms/
//       --max-request-bytes the admission policy (rejected requests
//       carry retry_after_ms), --cache-budget the cache's byte budget in
//       MiB.  SIGTERM/SIGINT shut down cleanly (drain, stats line,
//       exit 0).
//   scenario_runner --send=HOST:PORT --campaign=FILE [--payload=FILE]
//       client mode: submit the campaign file to a running daemon and
//       print (or --payload-write) the DETERMINISTIC report payload —
//       byte-identical to a local --campaign --payload run.  --ping and
//       --service-stats instead probe liveness / fetch service counters.
//       Exit codes: 0 ok, 1 service-side error, 2 connection failure,
//       3 rejected by admission control (backpressure; retry later).
//   scenario_runner --topology=file --topo-params=path=graph.csr ...
//       run on a REAL graph: a binary CSR file produced by
//       tools/edgelist2csr from a text edge list (DESIGN.md §14).  Real
//       graphs are usually disconnected — set --alpha explicitly.  Works
//       everywhere a synthetic topology does: sweeps, campaigns, the
//       store, --serve/--connect workers and the daemon.
//
// Other flags: --alpha=A --eps=E (<= 0: measured / canonical), --fast,
// --threads=N (shard the campaign's jobs across the executor pool;
// results are bit-identical for any N — see DESIGN.md §7/§8), --csv (emit CSV
// instead of the aligned table), --json[=path] (machine-readable runs:
// bare --json replaces ALL tables on stdout with one JSON document,
// --json=path keeps the tables and writes the file), --stats (engine
// telemetry after the runs; table form only), --cache-budget=MB (byte
// budget for the process EngineCache; LRU-evicts idle entries, results
// unchanged), --cache-stats (cache counters + residency after the run).
// Each mode names the flags it reads (Cli::require_only): any other flag,
// a typo or one of another mode, fails with exit 1 and is named.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "api/scenario_cli.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace fne {
namespace {

void list_registries() {
  std::cout << "topologies:\n";
  Table topo({"name", "params", "description"});
  for (const std::string& name : TopologyRegistry::instance().names()) {
    const TopologyEntry& e = TopologyRegistry::instance().at(name);
    topo.row().cell(name).cell(param_summary(e.params)).cell(e.doc);
  }
  topo.print(std::cout);

  std::cout << "\nfault models:\n";
  Table faults({"name", "params", "monotone", "description"});
  for (const std::string& name : FaultModelRegistry::instance().names()) {
    const FaultModelEntry& e = FaultModelRegistry::instance().at(name);
    faults.row()
        .cell(name)
        .cell(param_summary(e.params))
        .cell(e.monotone_params.empty() ? "-" : join_list(e.monotone_params))
        .cell(e.doc);
  }
  faults.print(std::cout);

  std::cout << "\nmetrics:\n";
  Table metrics({"name", "params", "description"});
  for (const std::string& name : MetricsRegistry::instance().names()) {
    const MetricEntry& e = MetricsRegistry::instance().at(name);
    metrics.row().cell(name).cell(param_summary(e.params)).cell(e.doc);
  }
  metrics.print(std::cout);

  std::cout << "\nnamed scenarios:\n";
  Table named({"name", "topology", "fault", "prune"});
  for (const Scenario& s : scenario_catalog()) {
    named.row()
        .cell(s.name)
        .cell(s.topology.name +
              (s.topology.params.empty() ? "" : "(" + s.topology.params.to_string() + ")"))
        .cell(s.fault.name +
              (s.fault.params.empty() ? "" : "(" + s.fault.params.to_string() + ")"))
        .cell(s.prune.kind == ExpansionKind::Node ? "prune (node)" : "prune2 (edge)");
  }
  named.print(std::cout);
}

[[nodiscard]] int parse_port(const std::string& text, const std::string& flag) {
  int port = 0;
  for (const char c : text) {
    FNE_REQUIRE(c >= '0' && c <= '9', flag + ": bad port '" + text + "'");
    port = port * 10 + (c - '0');
    FNE_REQUIRE(port < 65536, flag + ": bad port '" + text + "'");
  }
  FNE_REQUIRE(!text.empty(), flag + ": bad port '" + text + "'");
  return port;
}

/// --cache-budget=MB in bytes; the range check keeps the shift from
/// overflowing or turning a negative count into a huge budget.
[[nodiscard]] std::uint64_t cache_budget_bytes(const Cli& cli) {
  return cli.get_int_in_range<std::uint64_t>("cache-budget", 0, 0, INT64_MAX >> 20) << 20;
}

/// --connect: serve as a pull worker for a coordinator running the same
/// campaign.  The worker has no report of its own beyond a summary line;
/// all result-shaping flags belong on the coordinator.
int run_worker(const Cli& cli, Campaign campaign) {
  const std::string target = cli.get("connect", "");
  FNE_REQUIRE(!target.empty() && target != "1", "--connect needs HOST:PORT (or PORT)");
  WorkerOptions opts;
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    opts.port = parse_port(target, "--connect");
  } else {
    opts.host = target.substr(0, colon);
    opts.port = parse_port(target.substr(colon + 1), "--connect");
  }
  opts.name = cli.get("worker-name", opts.name);
  opts.plan_threads = cli.get_threads(1);
  opts.connect_attempts =
      cli.get_int_in_range<int>("connect-attempts", opts.connect_attempts, 0, INT_MAX);

  DistWorker worker(std::move(campaign), opts);
  const WorkerReport report = worker.run();
  std::cout << "worker '" << opts.name << "': cells=" << report.cells
            << " metrics=" << report.metrics << " reconnects=" << report.reconnects
            << (report.saw_done ? " (campaign done)" : " (coordinator gone)") << "\n";
  if (report.fatal_mismatch) {
    std::cerr << "error: coordinator refused the handshake: different campaign or protocol\n";
    return 2;
  }
  if (!report.ever_connected) {
    std::cerr << "error: no coordinator answered at " << target << "\n";
    return 1;
  }
  return 0;
}

// SIGTERM/SIGINT flag for --daemon; sig_atomic_t is all a handler may
// touch, and the main loop polls it.
volatile std::sig_atomic_t g_shutdown = 0;
extern "C" void daemon_signal_handler(int) { g_shutdown = 1; }

/// --daemon: run the scenario service until SIGTERM/SIGINT.
int run_daemon(const Cli& cli) {
  cli.require_only("--daemon", {"daemon", "bind", "service-workers", "threads", "queue-depth",
                                "queue-deadline-ms", "max-request-bytes", "retry-after-ms",
                                "cache-budget", "port-file"});
  ServiceOptions opts;
  const std::string spec = cli.get("daemon", "");
  if (spec != "1") opts.port = parse_port(spec, "--daemon");
  opts.bind = cli.get("bind", opts.bind);
  constexpr std::int64_t kMax = INT64_MAX;
  opts.workers = cli.get_int_in_range<int>("service-workers", opts.workers, 1, INT_MAX);
  opts.exec_threads = cli.get_threads(1);
  opts.queue_depth = cli.get_int_in_range<std::size_t>(
      "queue-depth", static_cast<std::int64_t>(opts.queue_depth), 1, kMax);
  opts.queue_deadline_ms = cli.get_int_in_range<std::uint64_t>("queue-deadline-ms", 0, 0, kMax);
  opts.max_request_bytes = cli.get_int_in_range<std::size_t>(
      "max-request-bytes", static_cast<std::int64_t>(opts.max_request_bytes), 0, kMax);
  opts.retry_after_ms = cli.get_int_in_range<std::uint64_t>(
      "retry-after-ms", static_cast<std::int64_t>(opts.retry_after_ms), 0, kMax);
  if (cli.has("cache-budget")) opts.cache_budget_bytes = cache_budget_bytes(cli);

  ScenarioService service(opts);
  service.start();
  std::cerr << "fne-service listening on " << opts.bind << ":" << service.port() << "\n";
  const std::string port_file = cli.get("port-file", "");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    FNE_REQUIRE(static_cast<bool>(out), "cannot write port file " + port_file);
    out << service.port() << "\n";
  }
  std::signal(SIGTERM, daemon_signal_handler);
  std::signal(SIGINT, daemon_signal_handler);
  while (g_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  service.stop();
  const ServiceStats st = service.stats();
  const EngineCacheStats cache = EngineCache::instance().stats();
  std::cerr << "fne-service: connections=" << st.connections << " requests=" << st.requests
            << " completed=" << st.completed << " errors=" << st.errors
            << " cancelled=" << st.cancelled << " rejected="
            << (st.rejected_queue_full + st.rejected_expired + st.rejected_oversized)
            << " cache_bytes=" << cache.bytes_resident << " peak_bytes=" << cache.peak_bytes
            << " evictions=" << cache.evictions << "\n";
  if (!port_file.empty()) std::remove(port_file.c_str());
  return 0;
}

/// --send: submit one request to a running daemon.  Exit codes 0 ok,
/// 1 service error, 2 connection/transport failure, 3 rejected.
int run_client(const Cli& cli) {
  cli.require_only("--send", {"send", "timeout-ms", "threads", "ping", "service-stats",
                              "campaign", "payload"});
  const std::string target = cli.get("send", "");
  FNE_REQUIRE(!target.empty() && target != "1", "--send needs HOST:PORT");
  const std::size_t colon = target.rfind(':');
  std::string host = "127.0.0.1";
  int port = 0;
  if (colon == std::string::npos) {
    port = parse_port(target, "--send");
  } else {
    host = target.substr(0, colon);
    port = parse_port(target.substr(colon + 1), "--send");
  }
  const int timeout_ms = cli.get_int_in_range<int>("timeout-ms", 120000, 0, INT_MAX);
  const int threads = cli.get_int_in_range<int>("threads", 0, 0, INT_MAX);

  try {
    ServiceClient client(host, port);
    ServiceResponse resp;
    if (cli.has("ping")) {
      resp = client.ping(timeout_ms);
    } else if (cli.has("service-stats")) {
      resp = client.stats(timeout_ms);
    } else {
      const std::string path = cli.get("campaign", "");
      FNE_REQUIRE(!path.empty() && path != "1",
                  "--send needs --campaign=FILE (or --ping / --service-stats)");
      std::ifstream in(path);
      FNE_REQUIRE(static_cast<bool>(in), "cannot read campaign file " + path);
      std::ostringstream text;
      text << in.rdbuf();
      resp = client.campaign(text.str(), threads, timeout_ms);
    }
    if (resp.rejected()) {
      std::cerr << "rejected: " << resp.message << " (retry_after_ms=" << resp.retry_after_ms
                << ")\n";
      return 3;
    }
    if (!resp.ok()) {
      std::cerr << "error: " << resp.message << "\n";
      return 1;
    }
    const std::string payload_path = cli.get("payload", "");
    if (!payload_path.empty() && payload_path != "1") {
      std::ofstream out(payload_path);
      FNE_REQUIRE(static_cast<bool>(out), "cannot write payload to " + payload_path);
      out << resp.payload << "\n";
      std::cerr << "(payload written to " << payload_path << ")\n";
    } else if (!resp.payload.empty()) {
      std::cout << resp.payload << "\n";
    } else {
      std::cout << "ok\n";
    }
    return 0;
  } catch (const PreconditionError& e) {
    // Everything the client REQUIREs — connect refusal, send failure,
    // response timeout, corrupt stream — is a transport-class failure.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}

void print_cache_stats(std::ostream& out) {
  const EngineCacheStats cs = EngineCache::instance().stats();
  out << "cache: leases=" << cs.leases << " engine_hits=" << cs.engine_hits
      << " engine_builds=" << cs.engine_builds << " graph_hits=" << cs.graph_hits
      << " graph_builds=" << cs.graph_builds << " evictions=" << cs.evictions
      << " bytes_resident=" << cs.bytes_resident << " peak_bytes=" << cs.peak_bytes
      << " budget_bytes=" << EngineCache::instance().budget_bytes() << "\n";
}

int run_campaign(const Cli& cli) {
  // The campaign file owns the scenario fields, so no scenario-level flag
  // applies here; a worker takes no result-shaping flag either.
  if (cli.has("connect")) {
    cli.require_only("--connect (worker mode)", {"campaign", "reps", "connect", "worker-name",
                                                 "threads", "connect-attempts",
                                                 "cache-budget"});
  } else if (cli.has("serve")) {
    cli.require_only("--campaign --serve",
                     {"campaign", "reps", "serve", "bind", "workers", "threads", "json", "csv",
                      "stats", "store", "resume", "store-stats", "payload", "cache-stats",
                      "cache-budget"});
  } else {
    cli.require_only("--campaign", {"campaign", "reps", "threads", "json", "csv", "stats",
                                    "store", "resume", "store-stats", "payload",
                                    "cache-stats", "cache-budget"});
  }
  const std::string spec = cli.get("campaign", "");
  FNE_REQUIRE(spec == "catalog" || !cli.has("reps"),
              "--reps only applies to --campaign=catalog; file campaigns declare "
              "repetitions per scenario");
  Campaign campaign =
      spec == "catalog"
          ? catalog_campaign(cli.get_int_in_range<int>("reps", 1, 1, INT_MAX))
          : campaign_from_file(spec);
  if (cli.has("connect")) return run_worker(cli, std::move(campaign));
  const int threads = cli.get_threads(1);
  const std::string json_path = cli.get("json", "");
  const bool json_to_stdout = json_path == "1";

  // --store=DIR / --resume: route the run through a ResultStore.
  // --resume is the convenience spelling with a conventional directory,
  // so "my campaign died, run it again" needs no bookkeeping.
  std::string store_dir = cli.get("store", "");
  FNE_REQUIRE(!cli.has("store") || (!store_dir.empty() && store_dir != "1"),
              "--store needs a directory: --store=DIR");
  if (cli.has("resume") && store_dir.empty()) store_dir = ".fne-store";
  FNE_REQUIRE(!cli.has("store-stats") || !store_dir.empty(),
              "--store-stats needs --store=DIR (or --resume)");
  const std::string payload_path = cli.get("payload", "");
  FNE_REQUIRE(!cli.has("payload") || (!payload_path.empty() && payload_path != "1"),
              "--payload needs a path: --payload=FILE");
  std::unique_ptr<ResultStore> store;
  if (!store_dir.empty()) store = std::make_unique<ResultStore>(store_dir);

  std::optional<DistStats> dist_stats;
  const CampaignReport report = [&] {
    if (!cli.has("serve")) {
      CampaignRunner runner(std::move(campaign));
      return runner.run(threads, store.get());
    }
    DistOptions dopts;
    const std::string serve = cli.get("serve", "");
    if (serve != "1") dopts.port = parse_port(serve, "--serve");
    dopts.bind = cli.get("bind", dopts.bind);
    dopts.local_threads = threads;
    const int in_process = cli.get_int_in_range<int>("workers", 0, 0, INT_MAX);

    const Campaign worker_campaign = campaign;  // copied before the move
    DistCoordinator coordinator(std::move(campaign), dopts, store.get());
    std::cerr << "serving campaign on " << dopts.bind << ":" << coordinator.port() << "\n";
    std::vector<std::unique_ptr<DistWorker>> workers;
    std::vector<std::thread> worker_threads;
    for (int i = 0; i < in_process; ++i) {
      WorkerOptions wopts;
      wopts.port = coordinator.port();
      wopts.name = "local-" + std::to_string(i);
      workers.push_back(std::make_unique<DistWorker>(worker_campaign, wopts));
      worker_threads.emplace_back([w = workers.back().get()] { (void)w->run(); });
    }
    CampaignReport rep = coordinator.run();
    for (const auto& w : workers) w->stop();
    for (std::thread& th : worker_threads) th.join();
    dist_stats = coordinator.stats();
    return rep;
  }();

  if (!json_to_stdout) {
    std::cout << "campaign: " << report.name << " — " << report.scenarios.size()
              << " scenarios, " << threads << (threads == 1 ? " thread" : " threads") << ", "
              << format_fixed(report.millis, 1) << " ms\n\n";
    Table table({"scenario", "topology", "n", "runs", "mean |H|/n", "culled", "engine iters",
                 "eigensolves", "ms"});
    for (const ScenarioReport& s : report.scenarios) {
      double frac = 0.0;
      std::uint64_t culled = 0;
      for (const ScenarioRun& r : s.runs) {
        frac += r.survivor_fraction(s.n);
        culled += r.prune.total_culled;
      }
      if (!s.runs.empty()) frac /= static_cast<double>(s.runs.size());
      table.row()
          .cell(s.scenario.name)
          .cell(s.scenario.topology.name)
          .cell(std::size_t{s.n})
          .cell(s.runs.size())
          .cell(frac, 3)
          .cell(culled)
          .cell(s.engine.iterations)
          .cell(s.engine.eigensolves)
          .cell(format_fixed(s.millis, 1));
    }
    if (cli.has("csv")) {
      table.write_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    if (cli.has("stats")) {
      const EngineStats st = report.total_engine_stats();
      std::cout << "\nengine totals: runs=" << st.runs << " iters=" << st.iterations
                << " eigensolves=" << st.eigensolves << " stale_hits=" << st.stale_sweep_hits
                << " disconnected=" << st.disconnected_culls
                << "\ncache: leases=" << report.cache.leases
                << " engine_hits=" << report.cache.engine_hits
                << " engine_builds=" << report.cache.engine_builds
                << " graph_builds=" << report.cache.graph_builds << "\n";
    }
  }
  if (dist_stats) {
    std::ostream& out = json_to_stdout ? std::cerr : std::cout;
    out << "dist: sessions=" << dist_stats->sessions << " disconnects=" << dist_stats->disconnects
        << " assignments=" << dist_stats->assignments << " requeues=" << dist_stats->requeues
        << " backups=" << dist_stats->backups << " remote="
        << (dist_stats->remote_cells + dist_stats->remote_metrics) << " local="
        << (dist_stats->local_cells + dist_stats->local_metrics)
        << " duplicates=" << dist_stats->duplicates << " rejected="
        << (dist_stats->rejected_corrupt + dist_stats->rejected_wrong_key +
            dist_stats->rejected_bad_payload)
        << "\n";
  }
  if (cli.has("store-stats")) {
    // Keep a --json stdout stream pure JSON; the stats go to stderr there.
    // The "store: hits=... misses=..." prefix is load-bearing: the
    // reproduce harness greps it to assert warm replays (validate.sh).
    std::ostream& out = json_to_stdout ? std::cerr : std::cout;
    out << "store: hits=" << report.store.hits << " misses=" << report.store.misses
        << " loaded_bytes=" << report.store.bytes_loaded
        << " committed_bytes=" << report.store.bytes_committed
        << " records=" << store->stats().records
        << " corrupt_records=" << report.store.corrupt_records
        << " truncated_bytes=" << report.store.truncated_bytes
        << " rotated_files=" << report.store.rotated_files << "\n";
  }
  if (cli.has("cache-stats")) {
    // Same stream policy as --store-stats: never corrupt a JSON stdout.
    print_cache_stats(json_to_stdout ? std::cerr : std::cout);
  }
  if (!payload_path.empty()) {
    std::ofstream out(payload_path);
    FNE_REQUIRE(static_cast<bool>(out), "cannot write payload to " + payload_path);
    out << report.to_json(/*include_timing=*/false) << "\n";
    std::cerr << "(payload written to " << payload_path << ")\n";
  }
  if (json_to_stdout) {
    std::cout << report.to_json() << "\n";
  } else if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (out) {
      out << report.to_json() << "\n";
      std::cerr << "(json written to " << json_path << ")\n";
    } else {
      std::cerr << "warning: cannot write json report to " << json_path << "\n";
    }
  }
  return 0;
}

int run(const Cli& cli) {
  if (cli.has("list")) {
    cli.require_only("--list", {"list"});
    list_registries();
    return 0;
  }
  if (cli.has("daemon")) return run_daemon(cli);
  if (cli.has("send")) return run_client(cli);
  // Local runs honor the same budget flag as the daemon (MiB).
  if (cli.has("cache-budget")) EngineCache::instance().set_budget_bytes(cache_budget_bytes(cli));
  if (cli.has("campaign")) return run_campaign(cli);

  // The result store keys CAMPAIGN cells, and only campaigns are served
  // or distributed, so none of those flags applies here.
  cli.require_only("a single-scenario run",
                   {"scenario", "topology", "topo-params", "fault", "fault-params", "kind",
                    "alpha", "eps", "fast", "verify", "expansion", "metrics", "reps", "seed",
                    "threads", "json", "csv", "stats", "cache-stats", "cache-budget", "sweep",
                    "sweep-values", "sweep-mode", "churn-steps", "p-leave", "p-join"});

  const int threads = cli.get_threads(1);
  // Bare `--json` parses as the value "1": JSON replaces the table on
  // stdout.  `--json=path` keeps the table and writes the file.
  const std::string json_path = cli.get("json", "");
  const bool json_to_stdout = json_path == "1";

  // Either a fault-param sweep (--sweep=key) or the scenario's own
  // repetitions, run as a one-entry campaign.
  CampaignEntry entry{scenario_from_cli(cli), std::nullopt};
  const bool sweeping = cli.has("sweep");
  if (sweeping) {
    SweepSpec sweep{cli.get("sweep", ""), cli.get_double_list("sweep-values", "")};
    FNE_REQUIRE(!sweep.values.empty(), "--sweep needs --sweep-values=a,b,c");
    const std::string mode_name = cli.get("sweep-mode", "independent");
    FNE_REQUIRE(mode_name == "independent" || mode_name == "monotone",
                "--sweep-mode must be independent or monotone");
    if (mode_name == "monotone") sweep.mode = SweepMode::kMonotone;
    entry.sweep = std::move(sweep);
  }
  const CampaignReport report =
      CampaignRunner(Campaign{entry.scenario.name, {std::move(entry)}}).run(threads);
  const ScenarioReport& sr = report.scenarios.front();
  const Scenario& s = sr.scenario;

  if (!json_to_stdout) {
    std::cout << "scenario: " << s.name << "\n"
              << "topology: " << s.topology.name
              << (s.topology.params.empty() ? "" : " (" + s.topology.params.to_string() + ")")
              << " — " << scenario_graph(s)->summary() << "\n"
              << "fault:    " << s.fault.name
              << (s.fault.params.empty() ? "" : " (" + s.fault.params.to_string() + ")") << "\n"
              << "prune:    " << (s.prune.kind == ExpansionKind::Node ? "Prune (node)"
                                                                      : "Prune2 (edge)")
              << "  alpha=" << sr.alpha << "  eps=" << sr.epsilon
              << "  threshold=" << sr.alpha * sr.epsilon << (s.prune.fast ? "  [fast]" : "")
              << (threads > 1 ? "  threads=" + std::to_string(threads) : "") << "\n\n";
    std::vector<std::string> labels;
    if (sweeping) {
      for (const double v : sr.sweep->values) {
        labels.push_back(sr.sweep->param + "=" + std::to_string(v).substr(0, 6));
      }
    }
    const Table table = metrics_table(s, sr.n, sr.runs, labels);
    if (cli.has("csv")) {
      table.write_csv(std::cout);
    } else {
      table.print(std::cout);
    }
  }

  if (!json_path.empty()) {
    JsonReport json("scenario_runner");
    json.top()
        .put("scenario", s.name)
        .put("topology", s.topology.name)
        .put("fault", s.fault.name)
        .put("kind", s.prune.kind == ExpansionKind::Node ? "node" : "edge")
        .put("n", std::size_t{sr.n})
        .put("alpha", sr.alpha)
        .put("epsilon", sr.epsilon)
        .put("fast", s.prune.fast)
        .put("repetitions", s.repetitions)
        .put("threads", threads)
        .put("seed", s.seed);
    if (sweeping) {
      json.top().put("sweep", sr.sweep->param).put_numbers("sweep_values", sr.sweep->values);
    }
    for (std::size_t i = 0; i < sr.runs.size(); ++i) {
      const ScenarioRun& r = sr.runs[i];
      auto& record = json.record("runs");
      // Sweep rows carry their x-axis value; repetition rows their rep.
      if (sweeping) record.put("value", sr.sweep->values[i]);
      record.put("rep", r.repetition)
          .put("fault_seed", r.fault_seed)
          .put("finder_seed", r.finder_seed)
          .put("faults", std::size_t{r.faults})
          .put("alive", std::size_t{r.alive.count()})
          .put("survivors", std::size_t{r.prune.survivors.count()})
          .put("culled", std::size_t{r.prune.total_culled})
          .put("iterations", r.prune.iterations)
          .put("millis", r.millis);
      if (!r.metrics.empty()) {
        JsonObject metrics_obj;
        for (const MetricRecord& m : r.metrics) metrics_obj.put_json(m.name, m.payload);
        record.put_json("metrics", metrics_obj.dump());
      }
    }
    if (json_to_stdout) {
      std::cout << json.dump() << "\n";
    } else {
      json.write(json_path);
    }
  }

  // Churn rounds are serially dependent: one standalone runner's engine
  // runs them, given the report's resolved α/ε so α is measured once.
  EngineStats churn_work;
  const int churn_steps = cli.get_int_in_range<int>("churn-steps", 0, 0, INT_MAX);
  if (churn_steps > 0 && !json_to_stdout) {
    Scenario churn_scenario = s;
    churn_scenario.prune.alpha = sr.alpha;
    churn_scenario.prune.epsilon = sr.epsilon;
    ScenarioRunner runner(std::move(churn_scenario));
    ChurnOptions copts;
    copts.steps = churn_steps;
    copts.p_leave = cli.get_double("p-leave", copts.p_leave);
    copts.p_join = cli.get_double("p-join", copts.p_join);
    copts.seed = s.seed + 17;
    const ChurnRunTrace trace = runner.run_churn(copts);
    churn_work = trace.engine;
    std::cout << "\nchurn (" << churn_steps << " rounds, p_leave=" << copts.p_leave
              << ", p_join=" << copts.p_join << "), re-pruned per round on one engine:\n";
    Table churn({"round", "alive", "gamma", "|H|", "culled", "iters", "prune ms"});
    const int stride = std::max(1, churn_steps / 10);
    for (std::size_t i = 0; i < trace.rounds.size(); ++i) {
      if (static_cast<int>(i) % stride != 0 && i + 1 != trace.rounds.size()) continue;
      const ChurnRoundRun& r = trace.rounds[i];
      churn.row()
          .cell(std::size_t{i})
          .cell(std::size_t{r.churn.alive_count})
          .cell(r.churn.gamma, 3)
          .cell(std::size_t{r.survivors})
          .cell(std::size_t{r.culled})
          .cell(r.iterations)
          .cell(r.prune_millis, 2);
    }
    churn.print(std::cout);
    std::cout << "total per-round prune time: " << trace.total_prune_millis() << " ms\n";
  }

  if (cli.has("stats") && !json_to_stdout) {
    // Σ run.engine over the report's runs plus the churn rounds — the
    // same work total regardless of --threads.
    EngineStats st = report.total_engine_stats();
    st += churn_work;
    std::cout << "\nengine telemetry (cumulative, " << threads
              << (threads == 1 ? " thread):\n" : " threads, pooled):\n");
    Table stats({"threads", "runs", "iters", "eigensolves", "stale sweeps", "stale hits",
                 "disconnected culls", "relabel BFS", "relabel verts"});
    stats.row()
        .cell(threads)
        .cell(st.runs)
        .cell(st.iterations)
        .cell(st.eigensolves)
        .cell(st.stale_sweeps)
        .cell(st.stale_sweep_hits)
        .cell(st.disconnected_culls)
        .cell(st.relabel_bfs_calls)
        .cell(st.relabel_bfs_vertices);
    stats.print(std::cout);
  }
  if (cli.has("cache-stats")) print_cache_stats(json_to_stdout ? std::cerr : std::cout);
  return 0;
}

}  // namespace
}  // namespace fne

int main(int argc, char** argv) {
  const fne::Cli cli(argc, argv);
  try {
    return fne::run(cli);
  } catch (const fne::PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n(use --list to see registered names and params)\n";
    return 1;
  }
}
