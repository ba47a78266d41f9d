#include "store/key.hpp"

#include <charconv>
#include <cstdio>
#include <string>

#include "api/campaign.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "expansion/types.hpp"

namespace fne {

namespace {

/// Hexfloat rendering: exact bits, locale-independent, round-trips any
/// double the sweep parser or the CLI can produce.  "%a" alone would do,
/// but pin the format so two libcs cannot disagree on padding.
std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

void append_metrics(std::string& key, const MetricsSpec& metrics) {
  key += "|metrics=frag:" + std::to_string(metrics.fragmentation ? 1 : 0);
  key += ",exp:" + std::to_string(metrics.expansion ? 1 : 0);
  key += ",trace:" + std::to_string(metrics.verify_trace ? 1 : 0);
  key += ",bx:" + std::to_string(metrics.bracket_exact_limit);
  key += "|requests=";
  bool first = true;
  for (const MetricRequest& req : metrics.requests) {
    if (!first) key += ';';
    first = false;
    key += req.name;
    key += '[';
    key += req.params.to_string();
    key += ']';
  }
}

}  // namespace

std::string store_key_prefix(const Scenario& scenario, const FaultSpec& effective_fault) {
  std::string key = "fne-cell|schema=4";
  key += "|topo=" + scenario.topology.name;
  key += "|topo_params=" + scenario.topology.params.to_string();
  // Entries whose build output depends on state beyond the params (the
  // `file` topology's on-disk bytes) declare a cache_salt.  The store
  // outlives the process, so folding the salt in matters even more here
  // than in the EngineCache: without it, rewriting a .csr in place would
  // resume a campaign from cells computed on the OLD graph.
  const std::string topo_salt =
      topology_cache_salt(scenario.topology.name, scenario.topology.params);
  if (!topo_salt.empty()) key += "|topo_salt=" + topo_salt;
  key += "|build_seed=" + std::to_string(scenario_build_seed(scenario));
  key += "|fault=" + effective_fault.name;
  key += "|fault_params=" + effective_fault.params.to_string();
  key += "|kind=";
  key += scenario.prune.kind == ExpansionKind::Node ? "node" : "edge";
  key += "|alpha=" + hexf(scenario.prune.alpha);
  key += "|epsilon=" + hexf(scenario.prune.epsilon);
  key += "|fast=" + std::to_string(scenario.prune.fast ? 1 : 0);
  key += "|max_iter=" + std::to_string(scenario.prune.max_iterations);
  append_metrics(key, scenario.metrics);
  key += "|seed=" + std::to_string(scenario.seed);
  key += "|rep=";
  return key;
}

std::string store_cell_key(std::string_view prefix, int rep, const SweepSpec* monotone) {
  char digits[16];
  const std::to_chars_result r = std::to_chars(digits, digits + sizeof(digits), rep);
  std::string key;
  key.reserve(prefix.size() + static_cast<std::size_t>(r.ptr - digits));
  key += prefix;
  key.append(digits, r.ptr);
  if (monotone != nullptr) {
    key += "|sweep=" + monotone->param + ":monotone:";
    bool first = true;
    for (const double v : monotone->values) {
      if (!first) key += ',';
      first = false;
      key += hexf(v);
    }
  }
  return key;
}

std::string store_cell_key(const Scenario& scenario, const FaultSpec& effective_fault,
                           int rep, const SweepSpec* monotone) {
  return store_cell_key(store_key_prefix(scenario, effective_fault), rep, monotone);
}

}  // namespace fne
