// Expander certificates for regular graphs via the expander mixing lemma.
//
// For a d-regular graph with adjacency second eigenvalue
// λ = max(λ₂(A), |λ_n(A)|), the mixing lemma gives the certified bound
//   α_e >= (d - λ₂(A)) / 2
// (this is the same bound as λ₂(L)/2 with L = dI - A, but computing it
// from the adjacency top of the spectrum exercises the other end of the
// Lanczos machinery and also yields λ for mixing-time statements).
#pragma once

#include <cstdint>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"
#include "spectral/lanczos.hpp"

namespace fne {

struct ExpanderCertificate {
  double degree = 0.0;          ///< d
  double lambda2_adj = 0.0;     ///< second-largest adjacency eigenvalue
  double lambda_min_adj = 0.0;  ///< smallest adjacency eigenvalue
  double lambda = 0.0;          ///< max(|λ₂|, |λ_min|) — the mixing λ
  double spectral_gap = 0.0;    ///< d - λ₂
  double edge_expansion_lower = 0.0;  ///< (d - λ₂)/2
  bool is_ramanujan = false;    ///< λ <= 2·sqrt(d-1) + tolerance
  bool converged = false;
};

struct ExpanderCertOptions {
  std::uint64_t seed = 7;
  /// Acceleration for both ends of the spectrum (DESIGN.md §10).  The
  /// bottom solve uses it as given; the top solve (on -L) re-derives its
  /// upper bound (0) and, for shift-invert, a shift that keeps -L - σI
  /// positive definite.
  SpectralAccel accel = SpectralAccel{SpectralMode::kFiltered};
};

/// Certify the subgraph induced by `alive`, which must be connected and
/// d-regular within the mask.
[[nodiscard]] ExpanderCertificate certify_expander(const Graph& g, const VertexSet& alive,
                                                   const ExpanderCertOptions& options);
[[nodiscard]] ExpanderCertificate certify_expander(const Graph& g, const VertexSet& alive,
                                                   std::uint64_t seed = 7);

[[nodiscard]] ExpanderCertificate certify_expander(const Graph& g, std::uint64_t seed = 7);

}  // namespace fne
