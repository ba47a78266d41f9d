// fne::Scenario — a declarative description of one paper-style experiment
// (DESIGN.md §6): which topology to build, how to injure it, how to run
// Prune/Prune2, and which metrics to measure on the survivor.
//
// Every experiment in the paper — and every bench, test and example in
// this repo — is an instance of the same pipeline
//
//     topology × fault process × prune × analysis
//
// A Scenario is the value type naming one such instance; ScenarioRunner
// (api/runner.hpp) executes it.  Topologies and fault processes are
// referenced by registry name (api/registry.hpp) so a scenario is fully
// describable as flat strings — CLI flags, config rows, CSV columns.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/params.hpp"
#include "expansion/types.hpp"

namespace fne {

struct TopologySpec {
  std::string name = "mesh";  ///< TopologyRegistry key
  Params params;
};

struct FaultSpec {
  std::string name = "random";  ///< FaultModelRegistry key
  Params params;
};

struct PruneSpec {
  /// Node = Prune (Theorem 2.1), Edge = Prune2 (Theorem 3.4).
  ExpansionKind kind = ExpansionKind::Edge;
  /// Expansion parameter α.  <= 0 means "measure it": the runner brackets
  /// the fault-free graph's expansion once and uses the constructive
  /// upper bound — the honest α per bench_e1's argument.
  double alpha = 0.0;
  /// Threshold factor ε.  <= 0 means the kind's canonical choice:
  /// 1/(2·max_degree) for Edge (Theorem 3.4), 1/2 for Node (k = 2).
  double epsilon = 0.0;
  /// The engine's one speed switch (CutFinderOptions::fast).  Off, runs
  /// are bit-identical to the stateless reference loops.  The cut finder
  /// otherwise runs its defaults at a per-repetition seed.
  bool fast = false;
  int max_iterations = 100000;
};

/// One registered-metric request: a MetricsRegistry key (api/metrics.hpp)
/// plus its params.  Resolved and computed per repetition by the runner.
struct MetricRequest {
  std::string name;
  Params params;
  friend bool operator==(const MetricRequest&, const MetricRequest&) = default;
};

/// One computed metric: the registry key, a deterministic flat JSON
/// payload (byte-identical for any thread count — the campaign report
/// splices it verbatim), and a short human summary for tables.
struct MetricRecord {
  std::string name;
  std::string payload;
  std::string brief;
};

struct MetricsSpec {
  /// Fragmentation profile of the survivor set (components, gamma).
  bool fragmentation = true;
  /// Expansion bracket of the survivor set (costly: extra cut searches).
  bool expansion = false;
  /// Replay-verify the prune trace (prune/verify.hpp certification).
  bool verify_trace = false;
  vid bracket_exact_limit = 14;  ///< exact enumeration cap for brackets
  /// Registered metrics to compute per repetition, in order (the three
  /// legacy bools above are also reachable by name through the registry;
  /// they stay as switches because every existing consumer reads their
  /// typed ScenarioRun fields).
  std::vector<MetricRequest> requests;
};

struct Scenario {
  std::string name;  ///< free-form label, used in tables
  TopologySpec topology;
  FaultSpec fault;
  PruneSpec prune;
  MetricsSpec metrics;
  int repetitions = 1;
  std::uint64_t seed = 42;
};

/// Named scenario presets for the scenario_runner CLI and the CI smoke:
/// small, seconds-fast instances of the paper's experiment families.
[[nodiscard]] std::vector<Scenario> scenario_catalog();
/// Look up a preset by name (REQUIREs it exists).
[[nodiscard]] Scenario named_scenario(const std::string& name);

}  // namespace fne
