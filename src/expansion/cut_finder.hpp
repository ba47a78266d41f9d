// The cut-finder portfolio: the constructive stand-in for line 2 of the
// paper's existential Prune/Prune2 algorithms ("while ∃ S_i ⊆ G_i such
// that ...").  See DESIGN.md §1 for why this substitution is sound.
#pragma once

#include <cstdint>
#include <optional>

#include "expansion/types.hpp"
#include "expansion/workspace.hpp"

namespace fne {

struct CutFinderOptions {
  vid exact_limit = 20;    ///< exhaustive search for subgraphs up to this size
  vid ball_sources = 12;
  int refine_passes = 6;
  std::uint64_t seed = 7;
  bool use_spectral = true;
  bool use_balls = true;
  bool use_exact = true;

  // Fast-mode switches (honored only when a workspace is supplied; see
  // DESIGN.md §5).  All default off: the default configuration is
  // bit-identical to the stateless portfolio.  Turning them on changes
  // WHICH violating set is found — never whether the found set is valid.
  /// Warm-start the Fiedler eigensolve from the workspace's cached vector.
  bool warm_start = false;
  /// Before any eigensolve, sweep the ordering induced by the cached
  /// (stale) Fiedler vector; a hit skips the solve entirely.
  bool stale_sweep_first = false;
  /// Let sweeps stop at the first candidate reaching the threshold.
  bool early_exit = false;
};

/// Find S ⊆ alive with |S| <= |alive|/2 violating the expansion threshold:
///   Node: |Γ(S)| <= threshold · |S|
///   Edge: |(S, alive\S)| <= threshold · |S|, with S connected (Prune2
///         requires a connected S_i).
/// Returns the witness, or nullopt when the portfolio finds none.  With
/// use_exact and |alive| <= exact_limit the answer is definitive.
///
/// The workspace overload pools every scratch allocation and enables the
/// fast-mode options above; `ws->alive_connected` additionally skips the
/// initial component scan (the PruneEngine maintains components
/// incrementally and only sets the hint when it is true).
[[nodiscard]] std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                                           ExpansionKind kind, double threshold,
                                                           const CutFinderOptions& options,
                                                           ExpansionWorkspace* ws);
[[nodiscard]] std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                                           ExpansionKind kind, double threshold,
                                                           const CutFinderOptions& options = {});

}  // namespace fne
