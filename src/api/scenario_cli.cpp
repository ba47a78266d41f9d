#include "api/scenario_cli.hpp"

#include <climits>
#include <sstream>
#include <utility>

#include "api/metrics.hpp"
#include "util/require.hpp"

namespace fne {

Scenario scenario_overrides_from_cli(Scenario base, const Cli& cli) {
  // Parsed keys merge into the preset's params, except when the
  // topology/fault *name* changes — the preset's params belong to the
  // old factory.
  const auto merge = [](Params& into, const std::string& spec) {
    const Params parsed = Params::parse(spec);
    for (const auto& [k, v] : parsed.values()) into.set(k, v);
  };
  if (cli.has("topology") && cli.get("topology", "") != base.topology.name) {
    base.topology = {cli.get("topology", ""), Params{}};
  }
  if (cli.has("topo-params")) merge(base.topology.params, cli.get("topo-params", ""));
  if (cli.has("fault") && cli.get("fault", "") != base.fault.name) {
    base.fault = {cli.get("fault", ""), Params{}};
  }
  if (cli.has("fault-params")) merge(base.fault.params, cli.get("fault-params", ""));
  if (cli.has("kind")) {
    const std::string kind = cli.get("kind", "edge");
    FNE_REQUIRE(kind == "node" || kind == "edge", "--kind must be node or edge");
    base.prune.kind = kind == "node" ? ExpansionKind::Node : ExpansionKind::Edge;
  }
  base.prune.alpha = cli.get_double("alpha", base.prune.alpha);
  base.prune.epsilon = cli.get_double("eps", base.prune.epsilon);
  base.prune.fast = cli.has("fast") || base.prune.fast;
  base.metrics.verify_trace = cli.has("verify") || base.metrics.verify_trace;
  base.metrics.expansion = cli.has("expansion") || base.metrics.expansion;
  if (cli.has("metrics")) {
    // --metrics=mesh_span,embedding_quality: registered metrics at their
    // default params (campaign files carry per-request params).  The list
    // replaces the preset's requests, like a topology name change.
    base.metrics.requests.clear();
    std::stringstream list(cli.get("metrics", ""));
    std::string name;
    while (std::getline(list, name, ',')) {
      if (name.empty()) continue;
      base.metrics.requests.push_back({name, Params{}});
    }
    FNE_REQUIRE(!base.metrics.requests.empty(), "--metrics needs at least one metric name");
  }
  check_metric_requests(base);
  base.repetitions = cli.get_int_in_range<int>("reps", base.repetitions, 1, INT_MAX);
  base.seed = cli.get_seed(base.seed);
  return base;
}

Scenario scenario_from_cli(const Cli& cli) {
  Scenario scenario;
  if (cli.has("scenario")) {
    scenario = named_scenario(cli.get("scenario", ""));
  } else {
    scenario.name = "ad-hoc";
  }
  return scenario_overrides_from_cli(std::move(scenario), cli);
}

}  // namespace fne
