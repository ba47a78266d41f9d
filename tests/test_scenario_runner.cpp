// Scenario-layer contracts (DESIGN.md §6): determinism (a run is a pure
// function of its Scenario), churn-through-engine parity with the old
// simulate_churn path, and engine-telemetry sanity.  Batches run as
// one-entry campaigns, the library's one batch scheduler.
#include <gtest/gtest.h>

#include "api/campaign.hpp"
#include "api/runner.hpp"
#include "prune/prune.hpp"
#include "prune/prune2.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

[[nodiscard]] Scenario culling_scenario() {
  // Heavy enough faults that Prune2 actually culls, small enough to be fast.
  Scenario s;
  s.name = "test";
  s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.25"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.metrics.verify_trace = true;
  s.repetitions = 2;
  s.seed = 99;
  return s;
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_TRUE(a.alive == b.alive);
  EXPECT_TRUE(a.prune.survivors == b.prune.survivors);
  EXPECT_EQ(a.prune.iterations, b.prune.iterations);
  ASSERT_EQ(a.prune.culled.size(), b.prune.culled.size());
  for (std::size_t i = 0; i < a.prune.culled.size(); ++i) {
    EXPECT_TRUE(a.prune.culled[i].set == b.prune.culled[i].set);
    EXPECT_EQ(a.prune.culled[i].boundary, b.prune.culled[i].boundary);
  }
  EXPECT_EQ(a.fragmentation.largest, b.fragmentation.largest);
}

/// `s` (optionally swept) as a one-entry campaign on one thread.
[[nodiscard]] ScenarioReport run_entry(const Scenario& s,
                                       std::optional<SweepSpec> sweep = std::nullopt) {
  Campaign campaign;
  campaign.entries.push_back({s, std::move(sweep)});
  CampaignReport report = CampaignRunner(std::move(campaign)).run(1);
  return std::move(report.scenarios.front());
}

TEST(ScenarioRunner, SameScenarioAndSeedIsBitIdenticalTwice) {
  const Scenario s = culling_scenario();
  const std::vector<ScenarioRun> a = run_entry(s).runs;
  const std::vector<ScenarioRun> b = run_entry(s).runs;
  ASSERT_EQ(a.size(), b.size());
  bool any_culled = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
    ASSERT_TRUE(a[i].trace.has_value());
    EXPECT_TRUE(a[i].trace->valid);
    any_culled = any_culled || a[i].prune.total_culled > 0;
  }
  EXPECT_TRUE(any_culled) << "workload too gentle to exercise the cull loop";
}

TEST(ScenarioRunner, FastModeIsDeterministicAndCertified) {
  Scenario s = culling_scenario();
  s.prune.fast = true;
  const std::vector<ScenarioRun> a = run_entry(s).runs;
  const std::vector<ScenarioRun> b = run_entry(s).runs;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
    ASSERT_TRUE(a[i].trace.has_value());
    EXPECT_TRUE(a[i].trace->valid) << "fast-mode trace must still replay";
  }
}

TEST(ScenarioRunner, DeterministicModeIsBitIdenticalToTheStatelessReference) {
  // The runner's default configuration must produce exactly what the old
  // hand-wired pipeline produced: same alive mask, same finder seed ->
  // same culled sets, same survivors (engine == reference contract,
  // DESIGN.md §5, now reachable through the scenario layer).
  const Scenario s = culling_scenario();
  ScenarioRunner runner(s);
  const ScenarioRun run = runner.run_isolated(s.fault, 0);

  PruneEngineOptions popts;
  popts.finder.seed = run.finder_seed;
  const PruneResult reference = prune2_reference(runner.graph(), run.alive, runner.alpha(),
                                                 runner.epsilon(), popts);
  EXPECT_TRUE(run.prune.survivors == reference.survivors);
  EXPECT_EQ(run.prune.iterations, reference.iterations);
  ASSERT_EQ(run.prune.culled.size(), reference.culled.size());
  for (std::size_t i = 0; i < reference.culled.size(); ++i) {
    EXPECT_TRUE(run.prune.culled[i].set == reference.culled[i].set);
    EXPECT_EQ(run.prune.culled[i].boundary, reference.culled[i].boundary);
  }
}

TEST(ScenarioRunner, SweepRunsOnOneEngineAndTracksTheParam) {
  Scenario s = culling_scenario();
  s.metrics.verify_trace = false;
  const std::vector<double> ps{0.05, 0.15, 0.3};
  const ScenarioReport report = run_entry(s, SweepSpec{"p", ps});
  const std::vector<ScenarioRun>& sweep = report.runs;
  ASSERT_EQ(sweep.size(), ps.size());
  // More faults -> fewer alive (same seed across the sweep).
  EXPECT_GT(sweep[0].alive.count(), sweep[2].alive.count());
  EXPECT_EQ(report.engine.runs, ps.size());
  // The sweep must not clobber the scenario's own fault params.
  EXPECT_EQ(report.scenario.fault.params.get_double("p", 0.0), 0.25);
  // An undeclared key is rejected before anything runs.
  Campaign bad;
  bad.entries.push_back({s, SweepSpec{"no_such_key", ps}});
  EXPECT_THROW((void)CampaignRunner(std::move(bad)), PreconditionError);
}

TEST(ScenarioRunner, ChurnAliveStreamMatchesSimulateChurn) {
  Scenario s = culling_scenario();
  s.metrics.verify_trace = false;
  ScenarioRunner runner(s);

  ChurnOptions copts;
  copts.steps = 12;
  copts.p_leave = 0.05;
  copts.p_join = 0.3;
  copts.seed = 1234;

  const ChurnRunTrace through_engine = runner.run_churn(copts);
  const ChurnTrace old_path = simulate_churn(runner.graph(), copts);

  ASSERT_EQ(through_engine.rounds.size(), old_path.steps.size());
  for (std::size_t i = 0; i < old_path.steps.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(through_engine.rounds[i].churn.alive_count, old_path.steps[i].alive_count);
    EXPECT_DOUBLE_EQ(through_engine.rounds[i].churn.gamma, old_path.steps[i].gamma);
  }
  EXPECT_TRUE(through_engine.final_alive == old_path.final_alive);
}

TEST(ScenarioRunner, ChurnRoundsPruneThroughThePersistentEngine) {
  Scenario s = culling_scenario();
  s.metrics.verify_trace = false;
  ScenarioRunner runner(s);

  ChurnOptions copts;
  copts.steps = 6;
  copts.p_leave = 0.08;
  copts.p_join = 0.2;
  copts.seed = 77;
  const ChurnRunTrace trace = runner.run_churn(copts);

  // One engine run per round, all on the call's one lease.
  EXPECT_EQ(trace.engine.runs, static_cast<std::uint64_t>(copts.steps));
  for (const ChurnRoundRun& r : trace.rounds) {
    EXPECT_LE(r.survivors, r.churn.alive_count);
    EXPECT_EQ(r.survivors + r.culled, r.churn.alive_count);
  }
  // The last round's survivors must match pruning its alive mask from
  // scratch in deterministic mode (engine == stateless reference).
  PruneEngineOptions popts;
  popts.finder.seed = trace.rounds.back().finder_seed;
  const PruneResult reference = prune2_reference(runner.graph(), trace.final_alive,
                                                 runner.alpha(), runner.epsilon(), popts);
  EXPECT_TRUE(trace.final_survivors == reference.survivors);
}

TEST(ScenarioRunner, EngineStatsAccumulateAcrossRuns) {
  Scenario s = culling_scenario();
  s.prune.fast = true;
  s.repetitions = 3;
  const EngineStats st = run_entry(s).engine;
  EXPECT_EQ(st.runs, 3u);
  EXPECT_GT(st.eigensolves + st.stale_sweep_hits, 0u);
  EXPECT_LE(st.stale_sweep_hits, st.stale_sweeps);
}

TEST(ScenarioRunner, MetricsTableHasOneRowPerRun) {
  const ScenarioReport report = run_entry(culling_scenario());
  const Table table = metrics_table(report.scenario, report.n, report.runs);
  EXPECT_EQ(table.num_rows(), report.runs.size());
}

TEST(ScenarioRunner, NamedScenariosAllConstruct) {
  for (const Scenario& s : scenario_catalog()) {
    SCOPED_TRACE(s.name);
    ScenarioRunner runner(s);
    EXPECT_GT(runner.graph().num_vertices(), 0u);
    EXPECT_GT(runner.alpha(), 0.0);
    EXPECT_GT(runner.epsilon(), 0.0);
  }
}

}  // namespace
}  // namespace fne
