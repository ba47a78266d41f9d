// The span of a graph (paper Eq. 1):
//   σ = max over compact U of |P(U)| / |Γ(U)|,
// where P(U) is the smallest tree connecting every node of Γ(U).
//
// Exact for small graphs (exhaustive compact sets + Dreyfus–Wagner);
// sampled for large graphs.  A sampled estimate σ_est is a LOWER bound,
// σ_est ≤ σ, when every one of its Steiner trees is exact.  Otherwise a
// 2-approximate tree can overshoot its ratio by up to 2×, σ_est may
// exceed σ, and only σ ≥ σ_est/2 holds.
#pragma once

#include <cstdint>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"

namespace fne {

struct SpanResult {
  double span = 0.0;
  VertexSet worst_set;        ///< compact set achieving the maximum
  vid worst_boundary = 0;
  vid worst_tree_nodes = 0;
  std::uint64_t sets_examined = 0;
  bool exact = false;         ///< exhaustive sets + exact Steiner everywhere
};

/// Exact span by exhaustive compact-set enumeration.  Requires the graph
/// to be connected and small (kCompactEnumLimit).
[[nodiscard]] SpanResult exact_span(const Graph& g);

struct SpanEstimateOptions {
  int samples_per_size = 32;
  std::uint64_t seed = 7;
  /// Target sizes as fractions of n; 0 entries are skipped.
  std::vector<double> size_fractions{0.02, 0.05, 0.1, 0.2, 0.35, 0.5};
};

/// Sampled span estimate over random compact sets.
[[nodiscard]] SpanResult estimate_span(const Graph& g, const SpanEstimateOptions& options = {});

}  // namespace fne
