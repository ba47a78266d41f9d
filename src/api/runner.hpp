// fne::ScenarioRunner — executes Scenarios (DESIGN.md §6, §8).
//
// A runner is bound to one Scenario: it resolves α/ε once and reads its
// graph and engines from the process-wide EngineCache (api/executor.hpp).
// It has no scheduler and no mutable state of its own.  Batches —
// repetitions, fault sweeps, whole studies — run as campaigns
// (api/campaign.hpp): CampaignPlan builds one runner per entry and calls
// its cell methods (run_isolated, run_monotone_chain,
// compute_metric_request) from its job pool; a single scenario is a
// one-entry campaign.  Every method leases its engine for the one call
// and returns it to the cache's pool when done; run_churn's rounds share
// that one lease, so its workspace — Krylov basis, BFS queues, degree
// tables, cached Fiedler vector — carries over from round to round.
//
// Determinism contract: a ScenarioRunner is a pure function of its
// Scenario.  Repetition r derives its fault seed from (scenario.seed, r)
// via splitmix64 and its finder seed likewise, never from the thread
// that runs it, and every call runs on an engine whose warm state was
// dropped at lease time (EngineCache contract), so each ScenarioRun is a
// pure function of (scenario, fault, rep): bit-identical for any thread
// count and any cache-hit pattern.  Within one run_churn call the rounds
// keep the cross-run Fiedler cache — they are serially dependent anyway
// and profit most from it.
//
// Monotone sweeps (DESIGN.md §8): for fault models whose registry entry
// declares the swept param monotone (same seed, larger value -> alive
// mask shrinks as a SUBSET), run_monotone_chain chains the sweep: point
// j starts the cull loop from survivors(j-1) ∩ alive(j) instead of
// alive(j).  The chain is one serial job on one lease, so campaign
// placement cannot reorder it.  Every culled set still satisfies its
// cull condition at cull time (verify_prune_trace certifies a monotone
// run like any other); in the paper's subcritical sweep regimes the
// chained survivors are additionally bit-identical to the independent
// points — tests and bench_s4_campaign parity-check that in
// deterministic mode.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/fragmentation.hpp"
#include "api/executor.hpp"
#include "api/scenario.hpp"
#include "expansion/bracket.hpp"
#include "faults/churn.hpp"
#include "prune/engine.hpp"
#include "prune/verify.hpp"
#include "util/table.hpp"

namespace fne {

/// One executed repetition of a Scenario.
struct ScenarioRun {
  int repetition = 0;
  std::uint64_t fault_seed = 0;
  std::uint64_t finder_seed = 0;  ///< cut-finder seed used; replays via prune()/prune2()
  vid faults = 0;          ///< n - |fault-model survivors|
  VertexSet alive;         ///< pre-prune engine input (== fault-model survivors,
                           ///< except monotone sweep points: chained start mask)
  PruneResult prune;
  double threshold = 0.0;  ///< α·ε actually used
  FragmentationProfile fragmentation;           ///< of prune.survivors (if requested)
  std::optional<ExpansionBracket> expansion;    ///< of prune.survivors (if requested)
  std::optional<TraceVerification> trace;       ///< replay certificate (if requested)
  /// Registered-metric results, one per MetricsSpec request in request
  /// order (api/metrics.hpp).  Payloads are deterministic — computed from
  /// the run and a per-(request, repetition) derived seed — so campaign
  /// reports splice them into the thread-count-independent payload.
  std::vector<MetricRecord> metrics;
  /// Engine work this run's prune performed (stats delta around the
  /// engine.run call).  Placement- and cache-history-independent, so the
  /// campaign layer folds per-entry stats as Σ runs.engine — which is
  /// what lets a store-served run (store/result_store.hpp) reproduce the
  /// deterministic report payload without re-running the engine.
  EngineStats engine;
  double millis = 0.0;     ///< prune time only (topology/fault excluded)

  [[nodiscard]] double survivor_fraction(vid n) const {
    return n == 0 ? 0.0 : static_cast<double>(prune.survivors.count()) / n;
  }
};

/// One churn round, re-pruned on the engine run_churn leased.
struct ChurnRoundRun {
  ChurnStep churn;         ///< the raw process observables (parity with simulate_churn)
  vid survivors = 0;       ///< |H| after re-pruning this round's alive mask
  vid culled = 0;
  int iterations = 0;
  std::uint64_t finder_seed = 0;  ///< cut-finder seed used this round
  double prune_millis = 0.0;
};

struct ChurnRunTrace {
  std::vector<ChurnRoundRun> rounds;
  VertexSet final_alive;       ///< churn process state after the last round
  VertexSet final_survivors;   ///< prune survivors of the last round
  EngineStats engine;          ///< engine work of this call's rounds (a stats delta)
  [[nodiscard]] double total_prune_millis() const;
};

/// The graph-build seed a ScenarioRunner derives from scenario.seed
/// (domain-0 splitmix64 stream).  Exposed for the result store's content
/// keys (store/key.hpp), which name the build seed explicitly.
[[nodiscard]] std::uint64_t scenario_build_seed(const Scenario& scenario);

/// The scenario's fault-free graph, from the process-wide EngineCache
/// (built on first use, shared afterwards).
[[nodiscard]] std::shared_ptr<const Graph> scenario_graph(const Scenario& scenario);

/// Render runs as a metrics table (one row per run; columns follow the
/// scenario's MetricsSpec; `n` is the graph's vertex count).  `labels`
/// name the first column (default "rep <r>").
[[nodiscard]] Table metrics_table(const Scenario& scenario, vid n,
                                  std::span<const ScenarioRun> runs,
                                  const std::vector<std::string>& labels = {});

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario);

  [[nodiscard]] const Scenario& scenario() const noexcept { return scenario_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  /// One campaign cell: repetition `rep` under `fault` (inject faults,
  /// prune, measure the requested metrics) on a freshly leased cache
  /// engine (warm state dropped at lease) — a pure function
  /// of (scenario, fault, rep), safe to call concurrently from any number
  /// of threads.  With `defer_split_metrics`, metric requests whose
  /// registry entry declares split_job are NOT computed: their
  /// run.metrics slot holds a placeholder {name, "", ""} for a later
  /// compute_metric_request to fill, which reproduces the inline result
  /// field-for-field.
  [[nodiscard]] ScenarioRun run_isolated(const FaultSpec& fault, int rep,
                                         bool defer_split_metrics = false) const;

  /// One monotone sweep chain over fault param `key`: one run per value
  /// at repetition 0's seeds, point j starting from survivors(j-1) ∩
  /// alive(j), all on ONE lease.  Campaign construction has already
  /// checked that the fault model declares `key` monotone and that
  /// `values` strictly ascend (see the header comment for why both
  /// matter).
  [[nodiscard]] std::vector<ScenarioRun> run_monotone_chain(
      const std::string& key, std::span<const double> values) const;

  /// Compute metric request `request_index` for a completed run, with the
  /// SAME derived seed the inline path uses — the record is bit-identical
  /// whether it was computed inline, deferred locally, or on a remote
  /// worker.  Pure and thread-safe.
  [[nodiscard]] MetricRecord compute_metric_request(const ScenarioRun& run,
                                                    std::size_t request_index) const;

  /// Drive a churn process and re-prune EVERY round on one engine,
  /// leased for this call; the trace's `engine` is the call's work.  The
  /// fault stream is bit-identical to simulate_churn(graph(), options) —
  /// the scenario's fault spec is not used here.
  [[nodiscard]] ChurnRunTrace run_churn(const ChurnOptions& options) const;

 private:
  [[nodiscard]] PruneEngineOptions engine_options(std::uint64_t finder_seed) const;
  [[nodiscard]] EngineLease lease_engine() const;
  /// One repetition on an explicit engine and fault spec — the unit of
  /// work every surface reduces to.  Pure given (scenario, fault, rep)
  /// when the engine's warm state was dropped.  `chain_start` non-null
  /// intersects the fault-model mask with it before pruning (the
  /// monotone-sweep chaining hook); run.faults always counts the
  /// fault-model mask.
  [[nodiscard]] ScenarioRun run_point(PruneEngine& engine, const FaultSpec& fault, int rep,
                                      const VertexSet* chain_start = nullptr,
                                      bool defer_split_metrics = false) const;
  void measure(ScenarioRun& run, bool defer_split_metrics) const;

  Scenario scenario_;
  std::shared_ptr<const Graph> graph_;
  double alpha_ = 0.0;
  double epsilon_ = 0.0;
};

}  // namespace fne
