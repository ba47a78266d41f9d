// Steiner trees for the span definition (paper Eq. 1): P(U) is the
// smallest tree connecting every node of Γ(U).
//
// Two engines:
//   * Dreyfus–Wagner dynamic program — exact, O(3^(t−1)·n + 2^(t−1)·m)
//     for t terminals (rooted at one of them); used whenever 3^t·n is
//     affordable.
//   * metric-closure MST — the classic 2-approximation; only ever
//     *overestimates* the tree size, which keeps sampled span estimates
//     conservative in the documented direction.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"

namespace fne {

struct SteinerResult {
  vid tree_nodes = 0;   ///< |P(U)|: number of nodes in the tree
  vid tree_edges = 0;   ///< tree_nodes - 1 (0 for a single terminal)
  bool exact = false;   ///< true when produced by Dreyfus–Wagner
  VertexSet nodes;      ///< the tree's vertex set
};

/// Cost guard for the exact engine: run DW only if 3^t * n is below this.
inline constexpr std::uint64_t kDreyfusWagnerBudget = 200'000'000ULL;

/// Can Dreyfus–Wagner afford these parameters?
[[nodiscard]] bool dreyfus_wagner_feasible(vid n, vid terminals);

/// Exact minimum Steiner tree (unit edge weights).  Terminals must be
/// nonempty and lie in one connected component.
[[nodiscard]] SteinerResult steiner_exact(const Graph& g, const std::vector<vid>& terminals);

/// 2-approximate Steiner tree via MST of the metric closure.
[[nodiscard]] SteinerResult steiner_approx(const Graph& g, const std::vector<vid>& terminals);

/// Dispatch: exact when affordable, approx otherwise.
[[nodiscard]] SteinerResult steiner_tree(const Graph& g, const std::vector<vid>& terminals);

}  // namespace fne
