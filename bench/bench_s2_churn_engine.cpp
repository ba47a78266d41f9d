// S2 — churn re-pruning through one persistent PruneEngine.
//
// A churn process perturbs the alive set only slightly per round, so
// re-running a stateless prune loop from scratch every round wastes
// nearly all of its work: components, degrees and the Fiedler ordering
// barely change.  ScenarioRunner::run_churn threads every round of one
// call through ONE leased engine whose workspace survives across rounds
// (ROADMAP: "reuse component state across *rounds*, not just within one
// run"), and reports that call's engine work on the trace.
//
// This bench drives the identical churn fault stream three ways —
// per-round stateless prune2_reference, runner churn in deterministic
// mode, runner churn in fast mode — and reports total prune time and the
// engine telemetry (how many eigensolves fast mode skipped).
//
// Flags: --side=N (default 32), --steps=N (default 30), --p-leave, --p-join,
// --seed=S, --json=out.json (machine-readable results).
#include "bench_common.hpp"

#include <utility>

#include "api/runner.hpp"
#include "faults/churn.hpp"
#include "prune/prune2.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto side = cli.get_int_in_range<vid>("side", 32, 2, 4096);
  const int steps = cli.get_int_in_range<int>("steps", 30, 1, 1000000);

  bench::print_header("S2-CHURN",
                      "Persistent PruneEngine across churn rounds vs per-round stateless "
                      "pruning (acceptance: engine beats stateless end-to-end)");

  Scenario scenario;
  scenario.name = "churn-mesh";
  scenario.topology = {"mesh", Params().set("side", static_cast<std::int64_t>(side))};
  scenario.prune.kind = ExpansionKind::Edge;
  scenario.prune.alpha = 2.0 / static_cast<double>(side);  // straight-line cut
  scenario.seed = seed;

  ChurnOptions copts;
  copts.steps = steps;
  copts.p_leave = cli.get_double("p-leave", 0.04);
  copts.p_join = cli.get_double("p-join", 0.2);
  copts.seed = seed + 17;

  // 1. Runner, deterministic: one engine, bit-identical per round to the
  //    stateless reference at the same finder seed.
  ScenarioRunner det_runner(scenario);
  Timer timer;
  const ChurnRunTrace det = det_runner.run_churn(copts);
  const double det_ms = timer.millis();

  // 2. Runner, fast mode: stale-sweep/warm-start/early-exit on top.
  Scenario fast_scenario = scenario;
  fast_scenario.prune.fast = true;
  ScenarioRunner fast_runner(fast_scenario);
  timer.reset();
  const ChurnRunTrace fast = fast_runner.run_churn(copts);
  const double fast_ms = timer.millis();

  // 3. Per-round stateless loop on the identical fault stream and finder
  //    seeds (ChurnProcess replays bit-identically).
  // Parity gate: per-round survivor *counts* must match, and the final
  // round's survivor *set* must be bit-identical (the trace only stores
  // counts per round; full per-round set identity is regression-tested in
  // tests/test_scenario_runner.cpp and tests/test_prune_engine.cpp).
  ChurnProcess process(det_runner.graph(), copts);
  double ref_ms = 0.0;
  bool det_matches_ref = true;
  for (int t = 0; t < steps; ++t) {
    (void)process.step();
    PruneEngineOptions popts;
    popts.finder.seed = det.rounds[static_cast<std::size_t>(t)].finder_seed;
    timer.reset();
    const PruneResult r = prune2_reference(det_runner.graph(), process.alive(),
                                           det_runner.alpha(), det_runner.epsilon(), popts);
    ref_ms += timer.millis();
    det_matches_ref = det_matches_ref &&
                      r.survivors.count() == det.rounds[static_cast<std::size_t>(t)].survivors;
    if (t + 1 == steps) {
      det_matches_ref = det_matches_ref && det.final_survivors == r.survivors;
    }
  }

  Table table({"mode", "rounds", "total prune ms", "ms/round", "speedup vs stateless",
               "det == stateless"});
  table.row()
      .cell("stateless prune2_reference")
      .cell(steps)
      .cell(ref_ms, 1)
      .cell(ref_ms / steps, 2)
      .cell(1.0, 2)
      .cell("-");
  table.row()
      .cell("engine (deterministic)")
      .cell(steps)
      .cell(det_ms, 1)
      .cell(det_ms / steps, 2)
      .cell(ref_ms / det_ms, 2)
      .cell(bench::yesno(det_matches_ref));
  table.row()
      .cell("engine (fast)")
      .cell(steps)
      .cell(fast_ms, 1)
      .cell(fast_ms / steps, 2)
      .cell(ref_ms / fast_ms, 2)
      .cell("n/a (culls differ)");
  bench::print_table(
      table,
      "acceptance: the fast engine beats per-round stateless pruning; the deterministic\n"
      "row is the correctness control — survivor counts match the stateless reference\n"
      "every round and the final-round survivor set is bit-identical (fast mode culls\n"
      "different, still-certified sets; per-round set identity is regression-tested).");

  Table stats({"mode", "engine runs", "iters", "eigensolves", "stale sweeps", "stale hits",
               "disconnected culls", "relabel BFS", "relabel verts"});
  for (const auto& [mode, st] :
       {std::pair<const char*, EngineStats>{"deterministic", det.engine},
        std::pair<const char*, EngineStats>{"fast", fast.engine}}) {
    stats.row()
        .cell(mode)
        .cell(st.runs)
        .cell(st.iterations)
        .cell(st.eigensolves)
        .cell(st.stale_sweeps)
        .cell(st.stale_sweep_hits)
        .cell(st.disconnected_culls)
        .cell(st.relabel_bfs_calls)
        .cell(st.relabel_bfs_vertices);
  }
  bench::print_table(stats,
                     "fast mode's stale hits are eigensolves the engine never ran; relabel\n"
                     "totals show how little of the graph each round's cull actually touches.");

  const double speedup = fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;

  if (cli.has("json")) {
    bench::JsonReport json("bench_s2_churn_engine");
    json.top()
        .put("workload", "mesh " + std::to_string(side) + "x" + std::to_string(side) + ", " +
                             std::to_string(steps) + " churn rounds")
        .put("n", std::size_t{det_runner.graph().num_vertices()})
        .put("rounds", steps)
        .put("threads", bench::max_threads())
        .put("stateless_ms", ref_ms)
        .put("det_ms", det_ms)
        .put("fast_ms", fast_ms)
        .put("speedup", speedup)
        .put("det_matches_reference", det_matches_ref);
    for (const auto& [mode, ms] :
         {std::pair<const char*, double>{"stateless", ref_ms}, {"det", det_ms},
          {"fast", fast_ms}}) {
      json.record("modes").put("mode", mode).put("millis", ms).put(
          "speedup", ms > 0.0 ? ref_ms / ms : 0.0);
    }
    json.write(bench::json_path(cli, "bench_s2_churn_engine.json"));
  }

  std::cout << "\nfast engine vs stateless per-round: " << speedup << "x ("
            << (speedup > 1.0 ? "PASS" : "FAIL") << " > 1x), deterministic parity: "
            << (det_matches_ref ? "PASS" : "FAIL") << "\n";
  return (speedup > 1.0 && det_matches_ref) ? 0 : 1;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
