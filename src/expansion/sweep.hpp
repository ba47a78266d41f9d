// Sweep cuts: evaluate every prefix of a vertex ordering as a candidate
// low-expansion set.  With the Fiedler ordering this is the classic
// constructive half of Cheeger's inequality.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "expansion/types.hpp"
#include "expansion/workspace.hpp"

namespace fne {

struct SweepOptions {
  /// Stop the sweep at the first candidate whose ratio is at or below this
  /// value and return it.  The default (+inf) evaluates every prefix and
  /// returns the global best — the reference behavior.  A finite value is
  /// only useful to a caller (the prune loop) for which *any* violating
  /// set is as good as the best one.
  double early_exit_threshold = std::numeric_limits<double>::infinity();
  /// Optional buffer pool; also supplies the alive-degree cache to
  /// CutState when its deg_alive_valid flag is set.
  ExpansionWorkspace* ws = nullptr;
};

/// Best cut over all prefixes (and, for node expansion, suffixes) of
/// `order`, which must list alive vertices exactly once.
[[nodiscard]] CutWitness sweep_cut(const Graph& g, const VertexSet& alive,
                                   const std::vector<vid>& order, ExpansionKind kind,
                                   const SweepOptions& options);
[[nodiscard]] CutWitness sweep_cut(const Graph& g, const VertexSet& alive,
                                   const std::vector<vid>& order, ExpansionKind kind);

/// Sweep the ordering induced by sorting the alive vertices by
/// `values[v]` ascending (ties by vertex id).  The single definition of
/// value-ordered sweeping — the Fiedler sweep and the engine's
/// stale-vector fast path both route through it, so ordering and
/// tie-breaking can never diverge between them.
[[nodiscard]] CutWitness sweep_by_values(const Graph& g, const VertexSet& alive,
                                         ExpansionKind kind, const std::vector<double>& values,
                                         const SweepOptions& options);

struct FiedlerSweepOptions {
  std::uint64_t seed = 7;
  /// Seed the eigensolve from the workspace's cached Fiedler vector
  /// (requires `ws` with fiedler_valid).  Cuts Lanczos iterations sharply
  /// when the alive mask shrank only slightly since the cached solve, at
  /// the cost of bit-exact reproducibility of the resulting ordering.
  bool warm_start = false;
  double early_exit_threshold = std::numeric_limits<double>::infinity();
  /// Buffer pool and Fiedler-vector cache.  When non-null the solve's
  /// resulting vector is stored back into it (fiedler_valid set).
  ExpansionWorkspace* ws = nullptr;
};

/// Sweep over the Fiedler-vector ordering of the alive subgraph.
[[nodiscard]] CutWitness fiedler_sweep(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                                       const FiedlerSweepOptions& options);
[[nodiscard]] CutWitness fiedler_sweep(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                                       std::uint64_t seed = 7);

}  // namespace fne
