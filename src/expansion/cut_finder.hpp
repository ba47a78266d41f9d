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

  /// Fast mode (DESIGN.md §5): before any eigensolve, sweep the ordering
  /// of the workspace's cached (stale) Fiedler vector, a hit skipping the
  /// solve; warm-start the solve from that vector; and let sweeps and the
  /// staged solve stop at the first candidate reaching the threshold.
  /// The stale sweep and warm start need a workspace.  Off (the default),
  /// the portfolio is bit-identical to the stateless one; on, it changes
  /// WHICH violating set is found — never whether the found set is valid.
  bool fast = false;
};

/// Find S ⊆ alive with |S| <= |alive|/2 violating the expansion threshold:
///   Node: |Γ(S)| <= threshold · |S|
///   Edge: |(S, alive\S)| <= threshold · |S|, with S connected (Prune2
///         requires a connected S_i).
/// Returns the witness, or nullopt when the portfolio finds none.  With
/// use_exact and |alive| <= exact_limit the answer is definitive.
///
/// The workspace overload pools every scratch allocation and enables
/// fast mode's stale sweep and warm start; `ws->alive_connected`
/// additionally skips the initial component scan (the PruneEngine maintains components
/// incrementally and only sets the hint when it is true).
[[nodiscard]] std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                                           ExpansionKind kind, double threshold,
                                                           const CutFinderOptions& options,
                                                           ExpansionWorkspace* ws);
[[nodiscard]] std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                                           ExpansionKind kind, double threshold,
                                                           const CutFinderOptions& options = {});

}  // namespace fne
