#include "api/runner.hpp"

#include <algorithm>
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

double ChurnRunTrace::total_prune_millis() const {
  double total = 0.0;
  for (const ChurnRoundRun& r : rounds) total += r.prune_millis;
  return total;
}

ScenarioRunner::ScenarioRunner(Scenario scenario)
    : scenario_(std::move(scenario)),
      graph_(EngineCache::instance().graph(scenario_.topology.name, scenario_.topology.params,
                                           derive_seed(scenario_.seed, 0, 0))) {
  FNE_REQUIRE(scenario_.repetitions >= 1, "scenario needs >= 1 repetition");
  // Validate metric requests eagerly (names and declared params) so a
  // typo fails at construction, not after the prune work ran.  Names
  // must be unique: records are keyed by name in report payloads, and a
  // duplicate would silently emit duplicate JSON keys.
  for (std::size_t i = 0; i < scenario_.metrics.requests.size(); ++i) {
    const MetricRequest& request = scenario_.metrics.requests[i];
    MetricsRegistry::instance().check(request.name, request.params);
    for (std::size_t j = 0; j < i; ++j) {
      FNE_REQUIRE(scenario_.metrics.requests[j].name != request.name,
                  "scenario '" + scenario_.name + "': metric '" + request.name +
                      "' requested twice (records are keyed by name)");
    }
  }

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
                                       derive_seed(scenario_.seed, 0, 0),
                                       scenario_.prune.kind);
}

PruneEngine& ScenarioRunner::primary_engine() {
  if (!primary_) primary_ = lease_engine();
  return primary_.engine();
}

void ScenarioRunner::fold_pool_stats(const EngineStats& delta) {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  pool_stats_ += delta;
}

PruneEngineOptions ScenarioRunner::engine_options(std::uint64_t finder_seed) const {
  PruneEngineOptions opts;
  if (scenario_.prune.fast) opts = PruneEngineOptions::fast();
  // fast() only toggles switches; layer the scenario's finder knobs on
  // top, then re-apply the switches so fast mode survives the overwrite.
  const bool fast = scenario_.prune.fast;
  opts.finder = scenario_.prune.finder;
  opts.finder.warm_start = opts.finder.warm_start || fast;
  opts.finder.stale_sweep_first = opts.finder.stale_sweep_first || fast;
  opts.finder.early_exit = opts.finder.early_exit || fast;
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
  // work THIS prune performed, regardless of which surface (primary
  // lease, per-job lease, monotone chain point) drove it.
  const EngineStats before = engine.stats();
  Timer timer;
  run.prune = engine.run(run.alive, alpha_, epsilon_, engine_options(run.finder_seed));
  run.millis = timer.millis();
  run.engine = engine.stats() - before;
  measure(run, defer_split_metrics);
  return run;
}

ScenarioRun ScenarioRunner::run_once(int rep) {
  return run_point(primary_engine(), scenario_.fault, rep);
}

ScenarioRun ScenarioRunner::run_isolated(const FaultSpec& fault, int rep) {
  EngineLease lease = lease_engine();
  ScenarioRun run = run_point(lease.engine(), fault, rep);
  fold_pool_stats(lease.stats_delta());
  return run;
}

ScenarioRun ScenarioRunner::run_isolated_deferred(const FaultSpec& fault, int rep) {
  EngineLease lease = lease_engine();
  ScenarioRun run = run_point(lease.engine(), fault, rep, nullptr,
                              /*defer_split_metrics=*/true);
  fold_pool_stats(lease.stats_delta());
  return run;
}

void ScenarioRunner::run_pooled(std::span<const FaultSpec> faults, std::span<const int> reps,
                                std::span<ScenarioRun> out, int threads) {
  const std::size_t jobs = out.size();
  FNE_REQUIRE(faults.size() == jobs && reps.size() == jobs, "pooled spans must align");
  threads = std::clamp<int>(threads, 1, static_cast<int>(std::max<std::size_t>(jobs, 1)));

  // Whatever executes job i, its result depends only on (scenario,
  // faults[i], reps[i]): every job runs on an engine whose warm state was
  // dropped (the one cross-run channel, the cached Fiedler ordering), so
  // placement, claim order and cache-hit pattern cannot leak into the
  // outputs.
  if (threads == 1) {
    PruneEngine& engine = primary_engine();
    for (std::size_t i = 0; i < jobs; ++i) {
      engine.drop_warm_state();
      out[i] = run_point(engine, faults[i], reps[i]);
    }
    return;
  }
  ExecutorPool::run(jobs, threads,
                    [&](std::size_t i) { out[i] = run_isolated(faults[i], reps[i]); });
}

std::vector<ScenarioRun> ScenarioRunner::run_all(int threads) {
  const auto reps = static_cast<std::size_t>(scenario_.repetitions);
  std::vector<ScenarioRun> runs(reps);
  std::vector<FaultSpec> faults(reps, scenario_.fault);
  std::vector<int> rep_ids(reps);
  for (std::size_t i = 0; i < reps; ++i) rep_ids[i] = static_cast<int>(i);
  run_pooled(faults, rep_ids, runs, threads);
  return runs;
}

void ScenarioRunner::set_fault(FaultSpec fault) {
  // Validate the name eagerly so a typo fails at set time, not mid-sweep.
  (void)FaultModelRegistry::instance().at(fault.name);
  scenario_.fault = std::move(fault);
}

std::vector<ScenarioRun> ScenarioRunner::sweep_fault_param(const std::string& key,
                                                           std::span<const double> values,
                                                           int threads, SweepMode mode) {
  if (mode == SweepMode::kMonotone) return sweep_monotone(key, values);

  // Each point runs a COPY of the fault spec with the swept key set, so
  // the runner's own spec is never touched: a bad key/value surfaces as a
  // registry PreconditionError from run_pooled without poisoning later
  // runs, and points are free to execute on any worker.
  std::vector<FaultSpec> faults(values.size(), scenario_.fault);
  for (std::size_t i = 0; i < values.size(); ++i) faults[i].params.set(key, values[i]);
  const std::vector<int> rep_ids(values.size(), 0);
  std::vector<ScenarioRun> runs(values.size());
  run_pooled(faults, rep_ids, runs, threads);
  return runs;
}

std::vector<ScenarioRun> ScenarioRunner::sweep_monotone(const std::string& key,
                                                        std::span<const double> values) {
  // Gate on the registry's declaration: chaining is only sound when the
  // fault model's alive mask at value[j] is a SUBSET of the mask at
  // value[j-1] under the same seed (the coupling random/high_degree
  // provide).  Ascending values then make the masks nest.
  const FaultModelEntry& entry = FaultModelRegistry::instance().at(scenario_.fault.name);
  const bool declared = std::any_of(entry.monotone_params.begin(), entry.monotone_params.end(),
                                    [&](const std::string& p) { return p == key; });
  FNE_REQUIRE(declared, "fault model '" + scenario_.fault.name + "' does not declare param '" +
                            key + "' monotone; use SweepMode::kIndependent");
  for (std::size_t i = 1; i < values.size(); ++i) {
    FNE_REQUIRE(values[i - 1] < values[i],
                "monotone sweep values must be strictly ascending");
  }

  // The whole chain is ONE serial job on ONE lease: point j depends on
  // point j-1, and running it as a unit keeps campaign placement and
  // thread counts out of the result.  Every point runs at rep 0's seeds
  // — exactly like the independent sweep, so both modes see the same
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
  fold_pool_stats(lease.stats_delta());
  return runs;
}

ChurnRunTrace ScenarioRunner::run_churn(const ChurnOptions& options) {
  PruneEngine& engine = primary_engine();
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
  return trace;
}

Table ScenarioRunner::metrics_table(std::span<const ScenarioRun> runs,
                                    const std::vector<std::string>& labels) const {
  std::vector<std::string> headers{"run", "n", "faults", "alive", "|H|", "|H|/n",
                                   "culled", "iters", "ms"};
  if (scenario_.metrics.fragmentation) {
    headers.push_back("gamma(H)");
    headers.push_back("comps");
  }
  if (scenario_.metrics.expansion) headers.push_back("exp(H) [lo,up]");
  if (scenario_.metrics.verify_trace) headers.push_back("trace");
  for (const MetricRequest& request : scenario_.metrics.requests) {
    headers.push_back(request.name);
  }

  Table table(std::move(headers));
  const vid n = graph_->num_vertices();
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
    if (scenario_.metrics.fragmentation) {
      table.cell(r.fragmentation.gamma, 3).cell(r.fragmentation.num_components);
    }
    if (scenario_.metrics.expansion) {
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
    if (scenario_.metrics.verify_trace) {
      table.cell(r.trace.has_value() ? (r.trace->valid ? "valid" : "INVALID") : "-");
    }
    for (std::size_t m = 0; m < scenario_.metrics.requests.size(); ++m) {
      table.cell(m < r.metrics.size() ? r.metrics[m].brief : "-");
    }
  }
  return table;
}

}  // namespace fne
