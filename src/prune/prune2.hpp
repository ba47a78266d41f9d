// Algorithm Prune2 (paper Figure 2) for random faults.
//
//   Prune2(ε):
//     G_0 ← G_f; i ← 0
//     while ∃ connected S_i ⊆ G_i with |(S_i, G_i\S_i)| <= α_e·ε·|S_i|
//           and |S_i| <= |G_i|/2:
//       K_i ← K_{G_i}(S_i)        (Lemma 3.3 compactification)
//       G_{i+1} ← G_i \ K_i;  i ← i+1
//     H ← G_i
//
// Theorem 3.4: for a graph with span σ and max degree δ, if the fault
// probability satisfies p <= 1/(2e·δ^(4σ)), ε <= 1/(2δ), and
// α_e >= 6δ²·log³_δ(n)/n, then Prune2(ε) returns H with |H| >= n/2 and
// edge expansion >= ε·α_e with high probability.
//
// Both loops take PruneEngineOptions (prune.hpp), the configuration
// Prune's loops and the engine share.
#pragma once

#include "prune/prune.hpp"

namespace fne {

/// Run Prune2(epsilon) with edge-expansion parameter `alpha_e`.  Culled
/// records store the *compactified* sets K_i (unless
/// options.compactify_enabled is off) and their cut at cull time.
///
/// Thin wrapper over a fresh PruneEngine, by default bit-identical to
/// prune2_reference; options.finder.fast is honored.
[[nodiscard]] PruneResult prune2(const Graph& g, const VertexSet& alive, double alpha_e,
                                 double epsilon, const PruneEngineOptions& options = {});

/// The original stateless Prune2 loop, kept as the reference
/// implementation for regression tests and engine benchmarks.
[[nodiscard]] PruneResult prune2_reference(const Graph& g, const VertexSet& alive, double alpha_e,
                                           double epsilon,
                                           const PruneEngineOptions& options = {});

/// Theorem 3.4's admissible fault probability for span sigma and max
/// degree delta: 1 / (2e · δ^(4σ)).
[[nodiscard]] double theorem34_fault_probability(double delta, double sigma);

}  // namespace fne
