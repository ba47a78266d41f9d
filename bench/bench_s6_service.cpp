// S6 — scenario service under open-loop load (DESIGN.md §13).
//
// Acceptance claims:
//
//   1. Tail latency: an open-loop mixed-scenario load (arrivals on a
//      fixed schedule, independent of completions — latency includes
//      any queueing the service caused) has p99 within --max-overhead
//      (default 1.5x) of the committed baseline's p99
//      (reproduce/baselines/BENCH_s6_service.json).  --max-p99-ms
//      overrides the gate with an absolute ceiling; a missing baseline
//      file skips the gate (first run on a new machine).
//
//   2. Bounded memory: cycling through many DISTINCT topologies with a
//      cache budget holds the cache's resident bytes at or under
//      budget * 1.10 with evictions actually firing, while the same
//      cycle unbounded grows to >= 2x the budget.  Process RSS
//      (/proc/self/status VmRSS) is reported alongside for the
//      operational view.
//
//   3. Determinism under eviction and concurrency: the service's
//      campaign payload during the budget-thrash phase is byte-identical
//      to a local single-threaded run.
//
// Flags: --requests=N (default 60), --qps=Q (default 25), --clients=C
// (default 6), --service-workers=W (default 2), --threads=T (exec width,
// default 2), --sides=K (distinct topologies in the budget phase,
// default 10), --max-overhead=X, --max-p99-ms=MS, --baseline=FILE,
// --json=out.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "service/service.hpp"
#include "util/require.hpp"

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// VmRSS from /proc/self/status in bytes (0 when unavailable — the
/// bench then reports 0 and still gates on the cache gauges, which are
/// deterministic where RSS is allocator-weather).
[[nodiscard]] std::uint64_t rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::uint64_t kb = 0;
      for (const char c : line) {
        if (c >= '0' && c <= '9') kb = kb * 10 + static_cast<std::uint64_t>(c - '0');
      }
      return kb * 1024;
    }
  }
  return 0;
}

[[nodiscard]] double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size()))) ;
  return sorted[std::min(sorted.size() - 1, idx == 0 ? 0 : idx - 1)];
}

/// One small campaign per mesh side — the distinct-key generator for
/// both the mixed load and the budget cycle.
[[nodiscard]] std::string mesh_campaign(int side, const char* kind, double p) {
  std::string s = std::to_string(side);
  return std::string("{\"name\": \"svc-mesh") + s +
         "\", \"scenarios\": [{\"name\": \"m" + s +
         "\", \"topology\": {\"name\": \"mesh\", \"params\": {\"side\": " + s +
         ", \"dims\": 2}}, \"fault\": {\"name\": \"random\", \"params\": {\"p\": " +
         std::to_string(p) + "}}, \"prune\": {\"kind\": \"" + kind +
         "\", \"alpha\": 0.25}, \"repetitions\": 1}]}";
}

}  // namespace

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  using fne::bench::JsonReport;

  const int requests = cli.get_int_in_range<int>("requests", 60, 1, 1000000);
  const double qps = cli.get_double("qps", 25.0);
  const int clients = cli.get_int_in_range<int>("clients", 6, 1, 256);
  const int service_workers = cli.get_int_in_range<int>("service-workers", 2, 1, 256);
  const int exec_threads = cli.get_int_in_range<int>("threads", 2, 1, 1024);
  const int sides = cli.get_int_in_range<int>("sides", 10, 1, 1000);
  const double max_overhead = cli.get_double("max-overhead", 1.5);
  const double max_p99_override = cli.get_double("max-p99-ms", 0.0);
  const std::string baseline_path =
      cli.get("baseline", "reproduce/baselines/BENCH_s6_service.json");

  bench::print_header("S6", "scenario service: tail latency under open-loop load, "
                            "bounded cache memory, determinism under eviction");

  EngineCache::instance().set_budget_bytes(0);
  EngineCache::instance().clear();

  ServiceOptions opts;
  opts.workers = service_workers;
  opts.exec_threads = exec_threads;
  opts.queue_depth = static_cast<std::size_t>(std::max(64, requests));
  ScenarioService service(opts);
  service.start();

  // The request mix: three scenario shapes (two node meshes, one edge
  // mesh).  Warm each once so the measured phase sees the daemon's
  // steady state — resident graphs, pooled engines.
  const std::vector<std::string> mix = {
      mesh_campaign(10, "node", 0.10),
      mesh_campaign(12, "edge", 0.08),
      mesh_campaign(14, "node", 0.12),
  };
  {
    ServiceClient warm("127.0.0.1", service.port());
    for (const std::string& c : mix) {
      const ServiceResponse r = warm.campaign(c);
      FNE_REQUIRE(r.ok(), "warm-up request failed: " + r.message);
    }
  }

  // --- claim 1: open-loop latency --------------------------------------
  std::vector<double> latency(static_cast<std::size_t>(requests), 0.0);
  std::vector<char> failed(static_cast<std::size_t>(requests), 0);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      ServiceClient client("127.0.0.1", service.port());
      for (int i = c; i < requests; i += clients) {
        // Open-loop: the schedule is fixed up front; a slow service
        // pays its own backlog in the measured latency.
        const auto scheduled =
            t0 + std::chrono::microseconds(static_cast<std::int64_t>(1e6 * i / qps));
        std::this_thread::sleep_until(scheduled);
        const ServiceResponse resp =
            client.campaign(mix[static_cast<std::size_t>(i) % mix.size()]);
        latency[static_cast<std::size_t>(i)] = ms_between(scheduled, Clock::now());
        if (!resp.ok()) failed[static_cast<std::size_t>(i)] = 1;
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_ms = ms_between(t0, Clock::now());
  const int failures = static_cast<int>(std::count(failed.begin(), failed.end(), 1));

  std::vector<double> sorted = latency;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = percentile(sorted, 0.50);
  const double p99 = percentile(sorted, 0.99);
  const double p999 = percentile(sorted, 0.999);
  const double achieved_qps = 1000.0 * requests / wall_ms;

  // Baseline gate: committed p99 x overhead, or the absolute override.
  double baseline_p99 = 0.0;
  bool have_baseline = false;
  {
    std::ifstream in(baseline_path);
    if (in) {
      std::ostringstream text;
      text << in.rdbuf();
      const JsonValue v = JsonValue::parse(text.str());
      if (const JsonValue* f = v.find("p99_ms")) {
        baseline_p99 = f->as_number();
        have_baseline = true;
      }
    }
  }
  double p99_gate = max_p99_override;
  if (p99_gate <= 0.0 && have_baseline) p99_gate = baseline_p99 * max_overhead;
  const bool latency_pass = failures == 0 && (p99_gate <= 0.0 || p99 <= p99_gate);

  Table lat({"requests", "qps target", "qps achieved", "p50 ms", "p99 ms", "p999 ms",
             "gate p99 ms", "pass"});
  lat.row()
      .cell(requests)
      .cell(qps, 4)
      .cell(achieved_qps, 4)
      .cell(p50, 3)
      .cell(p99, 3)
      .cell(p999, 3)
      .cell(p99_gate, 3)
      .cell(bench::yesno(latency_pass));
  bench::print_table(lat, p99_gate <= 0.0 ? "(no baseline — latency gate skipped)" : "");

  // --- claims 2 + 3: cache budget and determinism under eviction -------
  // Cycle `sides` DISTINCT topologies twice, unbounded: residency grows
  // with every new key.  Then impose budget = max/4 and cycle again:
  // residency must cap at budget (+10%) with real evictions, and the
  // service payload must still match a local run byte for byte.
  const auto cycle = [&](std::uint64_t* max_resident) {
    ServiceClient client("127.0.0.1", service.port());
    std::string last_payload;
    for (int lap = 0; lap < 2; ++lap) {
      for (int s = 0; s < sides; ++s) {
        const ServiceResponse r = client.campaign(mesh_campaign(8 + 2 * s, "node", 0.1));
        FNE_REQUIRE(r.ok(), "budget-phase request failed: " + r.message);
        last_payload = r.payload;
        *max_resident = std::max(*max_resident, EngineCache::instance().stats().bytes_resident);
      }
    }
    return last_payload;
  };

  EngineCache::instance().clear();
  const std::uint64_t rss_unbounded_before = rss_bytes();
  std::uint64_t unbounded_max = 0;
  (void)cycle(&unbounded_max);
  const std::uint64_t rss_unbounded_after = rss_bytes();

  const std::uint64_t budget = std::max<std::uint64_t>(unbounded_max / 4, 64 * 1024);
  EngineCache::instance().clear();
  EngineCache::instance().set_budget_bytes(budget);
  const EngineCacheStats before_bounded = EngineCache::instance().stats();
  const std::uint64_t rss_bounded_before = rss_bytes();
  std::uint64_t bounded_max = 0;
  const std::string service_payload = cycle(&bounded_max);
  const std::uint64_t rss_bounded_after = rss_bytes();
  const EngineCacheStats bounded_delta = EngineCache::instance().stats() - before_bounded;

  CampaignRunner local(campaign_from_json(mesh_campaign(8 + 2 * (sides - 1), "node", 0.1)));
  const std::string local_payload = local.run(1).to_json(/*include_timing=*/false);
  const bool identical = service_payload == local_payload;

  const bool grows = unbounded_max >= 2 * budget;
  const bool capped = bounded_max <= budget + budget / 10;
  const bool evicted = bounded_delta.evictions > 0;
  const bool budget_pass = grows && capped && evicted && identical;

  Table mem({"phase", "cache max bytes", "budget", "evictions", "rss before MB", "rss after MB",
             "payload identical"});
  mem.row()
      .cell("unbounded")
      .cell(std::size_t{unbounded_max})
      .cell("-")
      .cell("-")
      .cell(static_cast<double>(rss_unbounded_before) / 1048576.0, 4)
      .cell(static_cast<double>(rss_unbounded_after) / 1048576.0, 4)
      .cell("-");
  mem.row()
      .cell("budgeted")
      .cell(std::size_t{bounded_max})
      .cell(std::size_t{budget})
      .cell(bounded_delta.evictions)
      .cell(static_cast<double>(rss_bounded_before) / 1048576.0, 4)
      .cell(static_cast<double>(rss_bounded_after) / 1048576.0, 4)
      .cell(bench::yesno(identical));
  bench::print_table(
      mem, std::string("budget gates: grows>=2x=") + bench::yesno(grows) +
               " capped<=1.1x=" + bench::yesno(capped) + " evictions>0=" + bench::yesno(evicted));

  service.stop();
  EngineCache::instance().set_budget_bytes(0);
  EngineCache::instance().clear();

  const bool pass = latency_pass && budget_pass;
  std::cout << "\nS6 " << (pass ? "PASS" : "FAIL") << "\n";

  const std::string json = bench::json_path(cli, "BENCH_s6_service.json");
  if (!json.empty()) {
    JsonReport report("bench_s6_service");
    report.top()
        .put("requests", requests)
        .put("qps_target", qps)
        .put("qps_achieved", achieved_qps)
        .put("clients", clients)
        .put("service_workers", service_workers)
        .put("exec_threads", exec_threads)
        .put("p50_ms", p50)
        .put("p99_ms", p99)
        .put("p999_ms", p999)
        .put("p99_gate_ms", p99_gate)
        .put("failures", failures)
        .put("unbounded_max_bytes", unbounded_max)
        .put("budget_bytes", budget)
        .put("bounded_max_bytes", bounded_max)
        .put("evictions", bounded_delta.evictions)
        .put("rss_unbounded_mb", static_cast<double>(rss_unbounded_after) / 1048576.0)
        .put("rss_bounded_mb", static_cast<double>(rss_bounded_after) / 1048576.0)
        .put("payload_identical", identical)
        .put("pass", pass);
    (void)report.write(json);
  }
  return pass ? 0 : 1;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
