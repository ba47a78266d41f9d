#include "api/runner.hpp"

#include <utility>

#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "util/require.hpp"
#include "util/timer.hpp"

namespace fne {

namespace {

/// Decorrelated per-repetition seed streams (splitmix64 over a domain
/// tag), so rep i's faults and rep i's finder never share a stream and
/// `seed + i` collisions across scenarios cannot alias.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t domain,
                                        std::uint64_t index) {
  std::uint64_t state = base ^ (0x9e3779b97f4a7c15ULL * (domain + 1));
  (void)splitmix64(state);
  state += index;
  return splitmix64(state);
}

}  // namespace

std::uint64_t scenario_build_seed(const Scenario& scenario) {
  return derive_seed(scenario.seed, 0, 0);
}

std::shared_ptr<const Graph> scenario_graph(const Scenario& scenario) {
  return EngineCache::instance().graph(scenario.topology.name, scenario.topology.params,
                                       scenario_build_seed(scenario));
}

double ChurnRunTrace::total_prune_millis() const {
  double total = 0.0;
  for (const ChurnRoundRun& r : rounds) total += r.prune_millis;
  return total;
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)), graph_(scenario_graph(scenario_)) {
  FNE_REQUIRE(scenario_.repetitions >= 1, "scenario needs >= 1 repetition");
  // Validate metric requests eagerly so a typo fails at construction,
  // not after the prune work ran.
  check_metric_requests(scenario_);

  alpha_ = scenario_.prune.alpha;
  if (alpha_ <= 0.0) {
    // Measure: the constructive upper bound is a real cut of the
    // fault-free graph, so α is a value the graph actually has.
    BracketOptions bopts;
    bopts.exact_limit = scenario_.metrics.bracket_exact_limit;
    bopts.seed = derive_seed(scenario_.seed, 1, 0);
    alpha_ = expansion_bracket(*graph_, scenario_.prune.kind, bopts).upper;
    FNE_REQUIRE(alpha_ > 0.0, "scenario '" + scenario_.name +
                                  "': measured alpha is 0 (disconnected topology?); "
                                  "set prune.alpha explicitly");
  }
  epsilon_ = scenario_.prune.epsilon;
  if (epsilon_ <= 0.0) {
    epsilon_ = scenario_.prune.kind == ExpansionKind::Edge
                   ? 1.0 / (2.0 * static_cast<double>(graph_->max_degree()))
                   : 0.5;
  }
}

EngineLease ScenarioRunner::lease_engine() const {
  return EngineCache::instance().lease(scenario_.topology.name, scenario_.topology.params,
                                       scenario_build_seed(scenario_), scenario_.prune.kind);
}

PruneEngineOptions ScenarioRunner::engine_options(std::uint64_t finder_seed) const {
  PruneEngineOptions opts;
  opts.finder.fast = scenario_.prune.fast;
  opts.finder.seed = finder_seed;
  opts.max_iterations = scenario_.prune.max_iterations;
  return opts;
}

void ScenarioRunner::measure(ScenarioRun& run, bool defer_split_metrics) const {
  if (scenario_.metrics.fragmentation) {
    run.fragmentation = fragmentation_profile(*graph_, run.prune.survivors);
  }
  if (scenario_.metrics.expansion && run.prune.survivors.count() >= 2) {
    BracketOptions bopts;
    bopts.exact_limit = scenario_.metrics.bracket_exact_limit;
    bopts.seed = derive_seed(scenario_.seed, 2, static_cast<std::uint64_t>(run.repetition));
    run.expansion =
        expansion_bracket(*graph_, run.prune.survivors, scenario_.prune.kind, bopts);
  }
  if (scenario_.metrics.verify_trace) {
    run.trace = verify_prune_trace(*graph_, run.alive, run.prune, scenario_.prune.kind,
                                   run.threshold);
  }
  // Registered metrics, in request order.  Each request gets its own
  // decorrelated seed stream per repetition (domains 0-5 are taken by the
  // runner itself), so metric sampling never aliases fault or finder
  // seeds and the records are pure functions of (scenario, request, rep).
  // Seeds are POSITIONAL (request index, not the subset actually computed
  // here), so a deferred split metric filled in later is bit-identical to
  // the inline computation.
  const auto& requests = scenario_.metrics.requests;
  run.metrics.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (defer_split_metrics && MetricsRegistry::instance().at(requests[i].name).split_job) {
      run.metrics.push_back(MetricRecord{requests[i].name, {}, {}});
      continue;
    }
    run.metrics.push_back(compute_metric_request(run, i));
  }
}

MetricRecord ScenarioRunner::compute_metric_request(const ScenarioRun& run,
                                                    std::size_t request_index) const {
  const auto& requests = scenario_.metrics.requests;
  FNE_REQUIRE(request_index < requests.size(),
              "scenario '" + scenario_.name + "': metric request index out of range");
  const MetricRequest& request = requests[request_index];
  const MetricContext ctx{*graph_,  scenario_, run, alpha_, epsilon_,
                          derive_seed(scenario_.seed, 6 + request_index,
                                      static_cast<std::uint64_t>(run.repetition))};
  return MetricsRegistry::instance().compute(request.name, ctx, request.params);
}

ScenarioRun ScenarioRunner::run_point(PruneEngine& engine, const FaultSpec& fault, int rep,
                                      const VertexSet* chain_start,
                                      bool defer_split_metrics) const {
  ScenarioRun run;
  run.repetition = rep;
  run.fault_seed = derive_seed(scenario_.seed, 3, static_cast<std::uint64_t>(rep));
  VertexSet model = FaultModelRegistry::instance().build(fault.name, *graph_, fault.params,
                                                         run.fault_seed);
  run.faults = graph_->num_vertices() - model.count();
  // Chained (monotone-sweep) starts prune the previous point's survivors
  // restricted to this point's mask; run.alive records the actual engine
  // input so verify_prune_trace certifies the run as usual.
  run.alive = chain_start == nullptr ? std::move(model) : (*chain_start & model);
  run.threshold = alpha_ * epsilon_;
  run.finder_seed = derive_seed(scenario_.seed, 4, static_cast<std::uint64_t>(rep));

  // Snapshot the engine's counters around the run: run.engine is the
  // work THIS prune performed, whether a cell or a monotone chain point
  // drove it.
  const EngineStats before = engine.stats();
  Timer timer;
  run.prune = engine.run(run.alive, alpha_, epsilon_, engine_options(run.finder_seed));
  run.millis = timer.millis();
  run.engine = engine.stats() - before;
  measure(run, defer_split_metrics);
  return run;
}

ScenarioRun ScenarioRunner::run_isolated(const FaultSpec& fault, int rep,
                                         bool defer_split_metrics) const {
  EngineLease lease = lease_engine();
  return run_point(lease.engine(), fault, rep, nullptr, defer_split_metrics);
}

std::vector<ScenarioRun> ScenarioRunner::run_monotone_chain(
    const std::string& key, std::span<const double> values) const {
  // The whole chain is ONE serial job on ONE lease: point j depends on
  // point j-1, and running it as a unit keeps campaign placement and
  // thread counts out of the result.  Every point runs at rep 0's seeds
  // — exactly like an independent sweep, so both modes see the same
  // fault masks and the parity checks are meaningful.
  EngineLease lease = lease_engine();
  std::vector<ScenarioRun> runs;
  runs.reserve(values.size());
  VertexSet prev_survivors;
  for (std::size_t j = 0; j < values.size(); ++j) {
    FaultSpec fault = scenario_.fault;
    fault.params.set(key, values[j]);
    runs.push_back(
        run_point(lease.engine(), fault, 0, j == 0 ? nullptr : &prev_survivors));
    prev_survivors = runs.back().prune.survivors;
  }
  return runs;
}

ChurnRunTrace ScenarioRunner::run_churn(const ChurnOptions& options) const {
  EngineLease lease = lease_engine();
  PruneEngine& engine = lease.engine();
  ChurnProcess process(*graph_, options);
  ChurnRunTrace trace;
  trace.rounds.reserve(static_cast<std::size_t>(options.steps));
  for (int t = 0; t < options.steps; ++t) {
    ChurnRoundRun round;
    round.churn = process.step();
    round.finder_seed = derive_seed(scenario_.seed, 5, static_cast<std::uint64_t>(t));
    Timer timer;
    const PruneResult pruned =
        engine.run(process.alive(), alpha_, epsilon_, engine_options(round.finder_seed));
    round.prune_millis = timer.millis();
    round.survivors = pruned.survivors.count();
    round.culled = pruned.total_culled;
    round.iterations = pruned.iterations;
    if (t + 1 == options.steps) trace.final_survivors = pruned.survivors;
    trace.rounds.push_back(round);
  }
  trace.final_alive = process.alive();
  trace.engine = lease.stats_delta();
  return trace;
}

Table metrics_table(const Scenario& scenario, vid n, std::span<const ScenarioRun> runs,
                    const std::vector<std::string>& labels) {
  const MetricsSpec& metrics = scenario.metrics;
  std::vector<std::string> headers{"run", "n", "faults", "alive", "|H|", "|H|/n",
                                   "culled", "iters", "ms"};
  if (metrics.fragmentation) {
    headers.push_back("gamma(H)");
    headers.push_back("comps");
  }
  if (metrics.expansion) headers.push_back("exp(H) [lo,up]");
  if (metrics.verify_trace) headers.push_back("trace");
  for (const MetricRequest& request : metrics.requests) {
    headers.push_back(request.name);
  }

  Table table(std::move(headers));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ScenarioRun& r = runs[i];
    table.row()
        .cell(i < labels.size() ? labels[i] : "rep " + std::to_string(r.repetition))
        .cell(std::size_t{n})
        .cell(std::size_t{r.faults})
        .cell(std::size_t{r.alive.count()})
        .cell(std::size_t{r.prune.survivors.count()})
        .cell(r.survivor_fraction(n), 3)
        .cell(std::size_t{r.prune.total_culled})
        .cell(r.prune.iterations)
        .cell(format_fixed(r.millis, 1));
    if (metrics.fragmentation) {
      table.cell(r.fragmentation.gamma, 3).cell(r.fragmentation.num_components);
    }
    if (metrics.expansion) {
      if (r.expansion.has_value()) {
        // Appended, not "[" + ...: GCC 12 warns falsely (-Wrestrict) on the prepend.
        std::string bracket(1, '[');
        bracket.append(std::to_string(r.expansion->lower), 0, 6).push_back(',');
        bracket.append(std::to_string(r.expansion->upper), 0, 6).push_back(']');
        table.cell(bracket);
      } else {
        table.cell("-");
      }
    }
    if (metrics.verify_trace) {
      table.cell(r.trace.has_value() ? (r.trace->valid ? "valid" : "INVALID") : "-");
    }
    for (std::size_t m = 0; m < metrics.requests.size(); ++m) {
      table.cell(m < r.metrics.size() ? r.metrics[m].brief : "-");
    }
  }
  return table;
}

}  // namespace fne
