// S5 — fault-tolerant distributed campaign execution (DESIGN.md §12).
//
// Acceptance claims:
//
//   1. Correctness under distribution: the coordinator + W pull workers
//      produce a deterministic payload BYTE-identical to the local
//      CampaignRunner — verified on every mode below — and with W > 0
//      the clean run's workers compute at least one job.
//
//   2. Correctness under chaos: the same holds with every worker behind
//      a seeded FaultyTransport (drops + corruption + disconnects);
//      faults cost recomputation, never results.
//
//   3. Graceful degradation: a coordinator with ZERO workers completes
//      via its local executor within --max-overhead of the plain local
//      runner (default 2.0; the gap is the idle acceptor and plan setup,
//      not compute).
//
// The catalog runs behind a heavy head scenario (see with_heavy_head):
// its cells take a few ms each, so on their own the coordinator's local
// threads finished them before a worker had connected.
//
// Flags: --reps=N (catalog repetitions, 1..1000, default 1), --threads=N
// (coordinator local width, default: hardware), --workers=W (0..64,
// default 2), --max-overhead=X, --seed=S, --json=out.json.
#include "bench_common.hpp"

#include <memory>
#include <thread>
#include <vector>

#include "api/campaign.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"

namespace {

/// `campaign` behind one heavy scenario (mesh side 64, about 0.1 s a cell
/// in a Release build; the shape of tests/test_dist.cpp's
/// with_heavy_head) with one cell per coordinator thread and worker.
/// Entries are planned in order and the local threads sweep from the
/// front, so they are busy on heavy cells while the workers pull the
/// catalog's cells from the back of the job list.
[[nodiscard]] fne::Campaign with_heavy_head(fne::Campaign campaign, int cells) {
  using namespace fne;
  Scenario s;
  s.name = "heavy-head";
  s.topology = {"mesh", Params{{"side", "64"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.3"}}};
  s.prune.kind = ExpansionKind::Node;
  s.repetitions = cells;
  s.seed = 5;
  campaign.entries.insert(campaign.entries.begin(), {s, std::nullopt});
  return campaign;
}

[[nodiscard]] std::uint64_t remote_jobs(const fne::DistStats& stats) {
  return stats.remote_cells + stats.remote_metrics;
}

struct DistResult {
  std::string payload;
  double millis = 0.0;
  fne::DistStats stats;
};

[[nodiscard]] DistResult run_dist(const fne::Campaign& campaign, int local_threads, int workers,
                                  const fne::FaultSchedule& faults) {
  using namespace fne;
  DistOptions opts;
  opts.local_threads = local_threads;

  EngineCache::instance().clear();
  Timer timer;
  DistCoordinator coordinator(campaign, opts);
  std::vector<std::unique_ptr<DistWorker>> pool;
  std::vector<std::thread> threads;
  for (int i = 0; i < workers; ++i) {
    WorkerOptions w;
    w.port = coordinator.port();
    w.name = "bench-" + std::to_string(i);
    w.faults = faults;
    w.faults.seed += static_cast<std::uint64_t>(i) * 7919;
    pool.push_back(std::make_unique<DistWorker>(campaign, w));
    threads.emplace_back([p = pool.back().get()] { (void)p->run(); });
  }
  const CampaignReport report = coordinator.run();
  DistResult out;
  out.millis = timer.millis();
  for (const auto& w : pool) w->stop();
  for (std::thread& th : threads) th.join();
  out.payload = report.to_json(/*include_timing=*/false);
  out.stats = coordinator.stats();
  return out;
}

}  // namespace

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const int reps = cli.get_int_in_range<int>("reps", 1, 1, 1000);
  const int threads = bench::threads_flag(cli);
  const int workers = cli.get_int_in_range<int>("workers", 2, 0, 64);
  const double max_overhead = cli.get_double("max-overhead", 2.0);

  bench::print_header("S5-DIST",
                      "Distributed campaign execution: coordinator + pull workers over TCP "
                      "loopback; payload byte-identical to local under clean, chaotic and "
                      "zero-worker conditions; zero-worker degradation within the overhead "
                      "budget");

  bench::JsonReport json("bench_s5_dist");
  json.top().put("reps", reps).put("threads", threads).put("workers", workers);

  Campaign campaign = with_heavy_head(catalog_campaign(reps), threads + workers);
  for (CampaignEntry& e : campaign.entries) e.scenario.seed += seed;
  std::cout << "campaign: " << threads + workers << " heavy cells, then "
            << campaign.entries.size() - 1 << " scenarios x " << reps << " repetitions; "
            << workers << " workers, " << threads << " coordinator threads\n\n";

  // Local reference.
  EngineCache::instance().clear();
  Timer timer;
  CampaignRunner runner(campaign);
  const std::string reference = runner.run(threads).to_json(/*include_timing=*/false);
  const double local_ms = timer.millis();

  // Clean distributed run.
  const DistResult clean = run_dist(campaign, threads, workers, FaultSchedule{});

  // Chaotic distributed run: every worker drops, corrupts and
  // disconnects on a seeded schedule.
  FaultSchedule chaos;
  chaos.seed = seed + 101;
  chaos.drop = 0.1;
  chaos.corrupt = 0.05;
  chaos.disconnect = 0.05;
  const DistResult faulty = run_dist(campaign, threads, workers, chaos);

  // Zero-worker degradation.
  const DistResult fallback = run_dist(campaign, threads, 0, FaultSchedule{});
  const double overhead = local_ms > 0.0 ? fallback.millis / local_ms : 0.0;

  Table table({"mode", "workers", "ms", "remote", "local", "backups", "requeues", "rejected",
               "payload identical"});
  table.row().cell("local runner").cell("-").cell(local_ms, 4).cell("-").cell("-").cell("-")
      .cell("-").cell("-").cell("-");
  const auto add = [&](const char* mode, int w, const DistResult& r) {
    const bool same = r.payload == reference;
    table.row()
        .cell(mode)
        .cell(w)
        .cell(r.millis, 4)
        .cell(remote_jobs(r.stats))
        .cell(r.stats.local_cells + r.stats.local_metrics)
        .cell(r.stats.backups)
        .cell(r.stats.requeues)
        .cell(r.stats.rejected_corrupt + r.stats.rejected_wrong_key +
              r.stats.rejected_bad_payload)
        .cell(bench::yesno(same));
    json.record("modes")
        .put("mode", mode)
        .put("workers", w)
        .put("millis", r.millis)
        .put("remote", static_cast<std::int64_t>(remote_jobs(r.stats)))
        .put("backups", static_cast<std::int64_t>(r.stats.backups))
        .put("requeues", static_cast<std::int64_t>(r.stats.requeues))
        .put("payload_identical", same);
    return same;
  };
  const bool clean_same = add("dist clean", workers, clean);
  const bool chaos_same = add("dist chaos", workers, faulty);
  const bool fallback_same = add("dist no workers", 0, fallback);
  bench::print_table(table,
                     "every mode must reproduce the local runner's deterministic payload\n"
                     "byte for byte; chaos buys rejections and backups, never different bits.");

  const bool overhead_ok = overhead <= max_overhead;
  const bool fleet_ok = workers == 0 || remote_jobs(clean.stats) > 0;
  const bool pass = clean_same && chaos_same && fallback_same && overhead_ok && fleet_ok;
  json.top()
      .put("local_millis", local_ms)
      .put("fallback_overhead", overhead)
      .put("max_overhead", max_overhead)
      .put("pass", pass);
  if (cli.has("json")) json.write(bench::json_path(cli, "bench_s5_dist.json"));

  std::cout << "\npayload identical (clean / chaos / no-workers): "
            << (clean_same ? "PASS" : "FAIL") << " / " << (chaos_same ? "PASS" : "FAIL")
            << " / " << (fallback_same ? "PASS" : "FAIL")
            << "\nzero-worker overhead vs local: " << overhead << "x (threshold "
            << max_overhead << "x: " << (overhead_ok ? "PASS" : "FAIL") << ")\n"
            << "jobs computed by the clean run's workers: " << remote_jobs(clean.stats)
            << " (> 0 with workers: " << (fleet_ok ? "PASS" : "FAIL") << ")\n";
  return pass ? 0 : 1;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
