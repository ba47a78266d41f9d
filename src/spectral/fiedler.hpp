// Algebraic connectivity λ₂ and the Fiedler vector of a masked graph.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"

namespace fne {

struct FiedlerResult {
  double lambda2 = 0.0;            ///< second-smallest Laplacian eigenvalue
  std::vector<double> vector;      ///< per original vertex id; 0 for dead vertices
  bool converged = false;
};

struct FiedlerOptions {
  std::uint64_t seed = 7;
  int max_iterations = 400;
  double tolerance = 1e-8;
  /// Optional warm start, indexed by ORIGINAL vertex id (as FiedlerResult
  /// stores it).  It is restricted to the alive vertices and re-deflated
  /// against the all-ones kernel before use, so the previous iteration's
  /// vector of a slightly larger alive mask is a valid (and very good)
  /// initial guess.  nullptr = seeded random start.
  const std::vector<double>* warm_start = nullptr;
  /// Optional Lanczos buffer pool shared across solves.
  LanczosScratch* scratch = nullptr;
  /// Optional prebuilt sub-CSR of the alive subgraph (must match `alive`
  /// exactly — the PruneEngine maintains one incrementally across culls).
  /// nullptr: the solve builds its own, amortized over its 40+ applies.
  const SubCsr* sub = nullptr;
  /// Acceleration mode (DESIGN.md §10), Chebyshev-filtered by default.
  /// A non-finite op_upper_bound is filled from gershgorin_upper_bound
  /// over the sub-CSR, so the filter always has its bound.
  SpectralAccel accel = SpectralAccel{SpectralMode::kFiltered};
};

/// λ₂ and Fiedler vector of the subgraph induced by `alive`, which must be
/// connected and have >= 2 vertices.  The all-ones kernel is deflated.
[[nodiscard]] FiedlerResult fiedler_vector(const Graph& g, const VertexSet& alive,
                                           const FiedlerOptions& options);
[[nodiscard]] FiedlerResult fiedler_vector(const Graph& g, const VertexSet& alive,
                                           std::uint64_t seed = 7);

}  // namespace fne
