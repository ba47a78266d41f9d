// String-keyed registries normalizing every topology builder, fault
// model and analysis metric behind uniform factory signatures
// (DESIGN.md §6, §9).
//
// The repo grew one API per module: free functions (hypercube(dims)),
// result structs (ChainExpanderResult-style wrappers), the Mesh class,
// and three unrelated fault entry points (fault_model.hpp, adversary.hpp,
// churn.hpp).  The registries put one seam over all of them:
//
//   TopologyRegistry :  name × Params × seed -> Graph
//   FaultModelRegistry: name × Graph × Params × seed -> alive VertexSet
//   MetricsRegistry  :  name × MetricContext × Params -> MetricRecord
//                       (api/metrics.hpp)
//
// All three are one Registry<Entry> core plus their domain methods.  The
// core owns lookup (at() fails naming the registered entries, names()
// lists them sorted) and the declared-params check: at(name, params)
// rejects any key the entry did not declare, listing the declared keys,
// and every build/check/compute goes through it.  Topology entries also
// honor a vertex-count contract: expected_n() is computed from the params
// *before* building and build() REQUIREs the graph to match, which pins
// e.g. debruijn(dims) and shuffle_exchange(dims) at 2^dims vertices.
// Range violations are PreconditionErrors naming the entry
// ("topology 'mesh': ...").
//
// Registries are process-wide singletons; builtins are registered in the
// constructor (not by self-registering globals, which a static-library
// link would dead-strip).  add() lets applications extend them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/params.hpp"
#include "core/graph.hpp"
#include "core/vertex_set.hpp"
#include "util/require.hpp"

namespace fne {

/// One declared parameter of a registered factory.
struct ParamSpec {
  std::string key;
  std::string default_value;  ///< display only; factories own the real default
  std::string doc;
};

/// "a, b, c": the one list format of registry messages and listings.
[[nodiscard]] std::string join_list(const std::vector<std::string>& items);

/// "key=default, key, ..." for listings; "-" when nothing is declared.
[[nodiscard]] std::string param_summary(const std::vector<ParamSpec>& params);

/// The shared core of every registry: entries keyed by name in one sorted
/// map.  `Entry` needs `name` and `params` (its declared ParamSpecs).
template <typename Entry>
class Registry {
 public:
  [[nodiscard]] bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  /// The entry registered as `name`; REQUIRE-fails listing the registered
  /// names otherwise.
  [[nodiscard]] const Entry& at(const std::string& name) const {
    const auto it = entries_.find(name);
    FNE_REQUIRE(it != entries_.end(),
                "unknown " + kind_ + " '" + name + "' (registered: " + join_list(names()) + ")");
    return it->second;
  }

  /// at(name), after REQUIRing every key of `params` to be one the entry
  /// declares; the message lists the declared keys.
  [[nodiscard]] const Entry& at(const std::string& name, const Params& params) const {
    const Entry& entry = at(name);
    for (const auto& [key, value] : params.values()) {
      if (declares(entry, key)) continue;
      std::vector<std::string> keys;
      for (const ParamSpec& s : entry.params) keys.push_back(s.key);
      FNE_REQUIRE(false, kind_ + " '" + entry.name + "' has no param '" + key +
                             "' (declared: " + (keys.empty() ? "none" : join_list(keys)) + ")");
    }
    return entry;
  }

  /// Whether `entry` declares the param `key`.
  [[nodiscard]] static bool declares(const Entry& entry, const std::string& key) {
    return std::any_of(entry.params.begin(), entry.params.end(),
                       [&](const ParamSpec& s) { return s.key == key; });
  }

  /// Registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) out.push_back(name);
    return out;
  }

 protected:
  /// `kind` names the registry in messages ("topology", "fault model").
  explicit Registry(std::string kind) : kind_(std::move(kind)) {}

  /// Register (or replace) `entry`; the derived add() checks its factory.
  void insert(Entry entry) {
    FNE_REQUIRE(!entry.name.empty(), kind_ + " entry needs a name");
    entries_[entry.name] = std::move(entry);
  }

 private:
  std::string kind_;
  std::map<std::string, Entry> entries_;
};

struct TopologyEntry {
  std::string name;
  std::string doc;
  std::vector<ParamSpec> params;
  /// Vertex count implied by the params, computable without building.
  std::function<vid(const Params&)> expected_n;
  std::function<Graph(const Params&, std::uint64_t seed)> build;
  /// Whether the factory actually reads the seed.  Deterministic families
  /// (mesh, hypercube, ...) set false; the EngineCache then folds every
  /// build seed to one key so scenarios differing only in their fault
  /// seed share a graph and an engine pool.
  bool seeded = true;
  /// Resolved structural metadata (DESIGN.md §8): the coordinate facts a
  /// geometric analysis needs, as flat key/value pairs computed from the
  /// params WITHOUT building — e.g. mesh side/dims/wrap, butterfly
  /// levels/rows, de Bruijn dims.  Empty function = no structure beyond
  /// the vertex count.  This is what lets mesh-span/embedding analyses
  /// run from a Scenario instead of a bespoke constructor (mesh_for()).
  std::function<Params(const Params&)> structure;
  /// Extra cache-key material the params alone do not capture
  /// (DESIGN.md §14).  The EngineCache appends this to its graph/engine
  /// keys, so an entry whose build output depends on state outside the
  /// params — the `file` topology's on-disk bytes — returns a content
  /// fingerprint here (path + header checksum) and an edited file can
  /// never be served a stale cached graph.  Empty function = params are
  /// the whole identity (every synthetic family).
  std::function<std::string(const Params&)> cache_salt = {};
};

class TopologyRegistry : public Registry<TopologyEntry> {
 public:
  /// The process-wide registry, with all builtin families registered.
  [[nodiscard]] static TopologyRegistry& instance();

  void add(TopologyEntry entry);

  /// Validate params against the entry's declaration, build, and REQUIRE
  /// the result to honor the entry's vertex-count contract.
  [[nodiscard]] Graph build(const std::string& name, const Params& params,
                            std::uint64_t seed) const;
  /// The vertex count `build` would produce, without building.
  [[nodiscard]] vid expected_n(const std::string& name, const Params& params) const;
  /// The entry's resolved structural metadata for these params (validated
  /// against the declaration); empty Params when the entry declares none.
  [[nodiscard]] Params structure(const std::string& name, const Params& params) const;

 private:
  TopologyRegistry();
};

class Mesh;  // topology/mesh.hpp

/// Rebuild the Mesh VALUE (coordinates, strides, wrap) described by a
/// "mesh"/"torus" topology spec through the registry's structure
/// metadata, so coordinate-dependent analyses (span/mesh_span.hpp,
/// analysis/embedding.hpp) can run from a Scenario.  REQUIREs the entry
/// to declare mesh structure (side/dims/wrap keys).
[[nodiscard]] Mesh mesh_for(const std::string& name, const Params& params);

/// The entry's cache_salt output for these params, or "" when the entry
/// declares none (every synthetic family).  This is THE way to fold a
/// topology into a cache or store key: both the EngineCache keys and the
/// persistent store_cell_key() append it, so state outside the params
/// (the `file` topology's on-disk bytes) can never be served stale from
/// either layer (DESIGN.md §14).
[[nodiscard]] std::string topology_cache_salt(const std::string& name, const Params& params);

struct FaultModelEntry {
  std::string name;
  std::string doc;
  std::vector<ParamSpec> params;
  /// Returns the *alive* set (survivors), matching faults/fault_model.hpp
  /// conventions: params always describe the fault process, not survival.
  std::function<VertexSet(const Graph&, const Params&, std::uint64_t seed)> build;
  /// Params declared MONOTONE: under a fixed seed, a larger value makes
  /// the alive mask shrink as a SUBSET (a coupling, not just a count
  /// bound) — e.g. 'random' draws one uniform per vertex and compares it
  /// to p, 'high_degree' takes a prefix of one fixed degree order.  This
  /// is the gate for SweepMode::kMonotone's chained fault sweeps
  /// (DESIGN.md §8); models whose selection changes shape with the
  /// budget (sweep_cut, separator, bisection, random_exact's Floyd
  /// sampling) must NOT be declared.
  std::vector<std::string> monotone_params;
};

class FaultModelRegistry : public Registry<FaultModelEntry> {
 public:
  [[nodiscard]] static FaultModelRegistry& instance();

  void add(FaultModelEntry entry);

  /// Validate params and run the fault process; REQUIREs the returned
  /// alive mask to live in g's universe.
  [[nodiscard]] VertexSet build(const std::string& name, const Graph& g, const Params& params,
                                std::uint64_t seed) const;

 private:
  FaultModelRegistry();
};

}  // namespace fne
