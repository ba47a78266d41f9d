// S4 — the campaign batch driver over the process-wide engine cache
// (DESIGN.md §8).
//
// Two acceptance claims:
//
//   1. Throughput: running the full scenario catalog through
//      CampaignRunner at T threads beats the serial per-scenario loop
//      (one one-entry campaign per scenario at 1 thread — the
//      pre-campaign driver shape) by >= 2.5x at 4 threads on 4+ cores, while the
//      report's deterministic payload stays BYTE-identical for any
//      thread count (verified on every run).
//
//   2. Monotone sweeps: chaining a declared-monotone fault sweep
//      (survivors of p_low feed p_high) cuts engine cull work >= 1.5x
//      vs independent points (EngineStats-verified) and reproduces the
//      independent survivors bit for bit in deterministic mode.
//
// Plus the result store (DESIGN.md §11): a cold pass commits every cell;
// a warm pass on the same ResultStore and a cold-reopen pass on a fresh
// ResultStore over the populated directory must both serve every cell
// (misses = 0) and reproduce the payload.
//
// Flags: --reps=N (default 4: catalog repetitions), --threads=N
// (default: hardware), --side=N (monotone sweep mesh side, default 32),
// --min-speedup=X (sanity floor on the measured campaign speedup; the
// default 0.8 tolerates pure pool overhead on 1-core CI machines but
// fails a real regression), --min-cullwork-ratio=X (default 1.5),
// --seed=S, --json=out.json.
#include "bench_common.hpp"

#include <filesystem>
#include <thread>

#include "api/campaign.hpp"
#include "store/result_store.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const int reps = cli.get_int_in_range<int>("reps", 4, 1, 1000000);
  const auto side = cli.get_int_in_range<vid>("side", 32, 2, 4096);
  const int threads = bench::threads_flag(cli);
  const double min_speedup = cli.get_double("min-speedup", 0.8);
  const double min_cullwork = cli.get_double("min-cullwork-ratio", 1.5);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::print_header("S4-CAMPAIGN",
                      "Campaign batch driver over the engine cache (>= 2.5x at 4 threads on "
                      "4+ cores; monotone sweeps cut cull work >= 1.5x; reports bit-identical "
                      "for any thread count)");

  bench::JsonReport json("bench_s4_campaign");
  json.top()
      .put("reps", reps)
      .put("threads", threads)
      .put("hardware_threads", static_cast<std::int64_t>(hw))
      .put("omp_threads", bench::max_threads());

  // -------------------------------------------------------------------------
  // 1. Catalog campaign vs the serial per-scenario loop.
  // -------------------------------------------------------------------------
  Campaign catalog = catalog_campaign(reps);
  for (CampaignEntry& e : catalog.entries) e.scenario.seed += seed;  // --seed shifts the study
  std::cout << "catalog: " << catalog.entries.size() << " scenarios x " << reps
            << " repetitions, " << hw << " hardware threads\n\n";

  // The pre-campaign driver shape: one scenario at a time, one engine
  // lineage, no cross-scenario scheduling.  Cold cache for a fair start.
  EngineCache::instance().clear();
  Timer timer;
  std::size_t serial_runs = 0;
  for (const CampaignEntry& e : catalog.entries) {
    const CampaignReport one = CampaignRunner(Campaign{e.scenario.name, {e}}).run(1);
    serial_runs += one.scenarios.front().runs.size();
  }
  const double serial_ms = timer.millis();

  CampaignRunner campaign_runner(catalog);
  EngineCache::instance().clear();
  timer.reset();
  const CampaignReport serial_report = campaign_runner.run(1);
  const double campaign1_ms = timer.millis();
  const std::string payload = serial_report.to_json(/*include_timing=*/false);

  Table scaling({"driver", "threads", "total ms", "speedup vs loop", "payload identical"});
  scaling.row().cell("serial loop").cell(1).cell(serial_ms, 1).cell(1.0, 2).cell("-");
  scaling.row()
      .cell("campaign")
      .cell(1)
      .cell(campaign1_ms, 1)
      .cell(serial_ms / campaign1_ms, 2)
      .cell("yes");
  json.record("scaling").put("driver", "serial_loop").put("threads", 1).put("millis", serial_ms);
  json.record("scaling").put("driver", "campaign").put("threads", 1).put("millis", campaign1_ms);

  bool payload_identical = true;
  double best_speedup = serial_ms / campaign1_ms;
  std::vector<int> counts{2};
  if (threads > 2) counts.push_back(threads);
  for (const int t : counts) {
    EngineCache::instance().clear();
    timer.reset();
    const CampaignReport report = campaign_runner.run(t);
    const double ms = timer.millis();
    const bool same = report.to_json(false) == payload;
    payload_identical = payload_identical && same;
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    if (same) best_speedup = std::max(best_speedup, speedup);
    scaling.row().cell("campaign").cell(t).cell(ms, 1).cell(speedup, 2).cell(bench::yesno(same));
    json.record("scaling").put("driver", "campaign").put("threads", t).put("millis", ms).put(
        "speedup", speedup);
  }
  bench::print_table(scaling,
                     "speedup = serial per-scenario loop time / campaign wall time; the\n"
                     "deterministic payload (to_json without timing) must match at every T.");
  std::cout << "serial loop runs: " << serial_runs
            << ", campaign runs: " << serial_report.total_engine_stats().runs << "\n";

  // -------------------------------------------------------------------------
  // 2. Monotone sweep vs independent points.
  // -------------------------------------------------------------------------
  Scenario sweep;
  sweep.name = "monotone-mesh";
  sweep.topology = {"mesh", Params().set("side", static_cast<std::int64_t>(side))};
  sweep.fault = {"random", Params().set("p", 0.05)};
  sweep.prune.kind = ExpansionKind::Edge;
  sweep.prune.alpha = 2.0 / static_cast<double>(side);
  sweep.seed = seed;
  const std::vector<double> values = cli.get_double_list(
      "sweep-values", "0.05,0.1,0.15,0.2,0.25,0.3,0.35");

  // Each mode as a one-entry campaign; cull work is Σ run.engine of its
  // points (ScenarioReport::engine).  The graph is built outside the
  // timed runs.
  (void)scenario_graph(sweep);
  const auto run_sweep = [&](SweepMode mode, double& ms) {
    timer.reset();
    CampaignReport report =
        CampaignRunner(Campaign{sweep.name, {{sweep, SweepSpec{"p", values, mode}}}}).run(1);
    ms = timer.millis();
    return std::move(report.scenarios.front());
  };
  double indep_ms = 0.0;
  double mono_ms = 0.0;
  const ScenarioReport indep_report = run_sweep(SweepMode::kIndependent, indep_ms);
  const ScenarioReport mono_report = run_sweep(SweepMode::kMonotone, mono_ms);
  const std::vector<ScenarioRun>& indep = indep_report.runs;
  const std::vector<ScenarioRun>& mono = mono_report.runs;
  const EngineStats& indep_stats = indep_report.engine;
  const EngineStats& mono_stats = mono_report.engine;

  bool parity = indep.size() == mono.size();
  for (std::size_t i = 0; parity && i < indep.size(); ++i) {
    parity = indep[i].prune.survivors == mono[i].prune.survivors;
  }
  const double cullwork_ratio =
      mono_stats.iterations > 0
          ? static_cast<double>(indep_stats.iterations) / static_cast<double>(mono_stats.iterations)
          : static_cast<double>(indep_stats.iterations);

  Table monotone({"mode", "points", "engine iters", "eigensolves", "relabel verts", "ms",
                  "survivors identical"});
  monotone.row()
      .cell("independent")
      .cell(values.size())
      .cell(indep_stats.iterations)
      .cell(indep_stats.eigensolves)
      .cell(indep_stats.relabel_bfs_vertices)
      .cell(indep_ms, 1)
      .cell("-");
  monotone.row()
      .cell("monotone")
      .cell(values.size())
      .cell(mono_stats.iterations)
      .cell(mono_stats.eigensolves)
      .cell(mono_stats.relabel_bfs_vertices)
      .cell(mono_ms, 1)
      .cell(bench::yesno(parity));
  bench::print_table(
      monotone,
      "monotone chains survivors(p_low) ∩ alive(p_high) as the next start mask; cull work\n"
      "(engine iterations) must drop >= " + std::to_string(min_cullwork).substr(0, 4) +
          "x while deterministic-mode survivors stay bit-identical.");

  // -------------------------------------------------------------------------
  // 3. Result store: cold commit vs warm replay (DESIGN.md §11).
  // -------------------------------------------------------------------------
  const std::string store_dir =
      (std::filesystem::temp_directory_path() / "fne_bench_s4_store").string();
  std::filesystem::remove_all(store_dir);
  ResultStore store(store_dir);
  EngineCache::instance().clear();
  timer.reset();
  const CampaignReport cold_report = campaign_runner.run(threads, &store);
  const double cold_ms = timer.millis();
  timer.reset();
  const CampaignReport warm_report = campaign_runner.run(threads, &store);
  const double warm_ms = timer.millis();
  // A fresh store on the populated directory: times open() on a full log.
  timer.reset();
  ResultStore reopened(store_dir);
  const CampaignReport reopen_report = campaign_runner.run(threads, &reopened);
  const double reopen_ms = timer.millis();
  const bool store_identical =
      cold_report.to_json(false) == payload && warm_report.to_json(false) == payload;
  const bool warm_all_hits = warm_report.store.misses == 0 &&
                             warm_report.store.hits == cold_report.store.misses;
  const bool reopen_ok = reopen_report.to_json(false) == payload &&
                         reopen_report.store.misses == 0 &&
                         reopen_report.store.hits == cold_report.store.misses;
  const double replay_speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;

  Table store_table({"pass", "hits", "misses", "committed KB", "ms", "payload identical"});
  store_table.row()
      .cell("cold")
      .cell(cold_report.store.hits)
      .cell(cold_report.store.misses)
      .cell(static_cast<double>(cold_report.store.bytes_committed) / 1024.0, 1)
      .cell(cold_ms, 1)
      .cell(bench::yesno(cold_report.to_json(false) == payload));
  store_table.row()
      .cell("warm")
      .cell(warm_report.store.hits)
      .cell(warm_report.store.misses)
      .cell(static_cast<double>(warm_report.store.bytes_committed) / 1024.0, 1)
      .cell(warm_ms, 1)
      .cell(bench::yesno(warm_report.to_json(false) == payload));
  store_table.row()
      .cell("cold reopen")
      .cell(reopen_report.store.hits)
      .cell(reopen_report.store.misses)
      .cell(static_cast<double>(reopen_report.store.bytes_committed) / 1024.0, 1)
      .cell(reopen_ms, 1)
      .cell(bench::yesno(reopen_report.to_json(false) == payload));
  bench::print_table(store_table,
                     "cold run computes every cell and commits it; the warm run (same store)\n"
                     "and the cold reopen (a fresh store on the same directory) must serve\n"
                     "every cell from the store (misses = 0) and reproduce the payload.");
  json.record("store").put("pass", "cold").put("millis", cold_ms).put(
      "misses", cold_report.store.misses);
  json.record("store").put("pass", "warm").put("millis", warm_ms).put(
      "hits", warm_report.store.hits).put("replay_speedup", replay_speedup);
  json.record("store").put("pass", "cold_reopen").put("millis", reopen_ms).put(
      "hits", reopen_report.store.hits);
  std::filesystem::remove_all(store_dir);

  const bool pass = payload_identical && parity && best_speedup >= min_speedup &&
                    cullwork_ratio >= min_cullwork && store_identical && warm_all_hits &&
                    reopen_ok;
  json.top()
      .put("best_speedup", best_speedup)
      .put("payload_identical", payload_identical)
      .put("monotone_parity", parity)
      .put("cullwork_ratio", cullwork_ratio)
      .put("store_payload_identical", store_identical)
      .put("store_warm_all_hits", warm_all_hits)
      .put("store_reopen_ok", reopen_ok)
      .put("store_replay_speedup", replay_speedup)
      .put("pass", pass);
  if (cli.has("json")) json.write(bench::json_path(cli, "bench_s4_campaign.json"));

  std::cout << "\npayload bit-identical across thread counts: "
            << (payload_identical ? "PASS" : "FAIL")
            << "\nmonotone survivors == independent survivors: " << (parity ? "PASS" : "FAIL")
            << "\nmonotone cull-work saving: " << cullwork_ratio << "x (threshold "
            << min_cullwork << "x: " << (cullwork_ratio >= min_cullwork ? "PASS" : "FAIL")
            << ")\nbest campaign speedup: " << best_speedup << "x (threshold " << min_speedup
            << "x: " << (best_speedup >= min_speedup ? "PASS" : "FAIL") << ")\n"
            << "store replay, warm / cold reopen (misses = 0, same payload): "
            << (store_identical && warm_all_hits ? "PASS" : "FAIL") << " / "
            << (reopen_ok ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
