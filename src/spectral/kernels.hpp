// Chunk-deterministic SIMD reduction kernels of the spectral layer
// (DESIGN.md §7, §10).
//
// The determinism strategy is: FIX THE SUMMATION TREE.  Every reduction
// sums fixed 1024-element chunks and folds the chunk partials in index
// order; inside a chunk, kSimdLanes fixed strided accumulators are folded
// in lane order, then the sub-lane remainder is added sequentially.  The
// tree depends only on the input length — never on the OMP thread count,
// and (unlike a compiler-chosen `simd reduction`) not on whatever width
// the autovectorizer picks — so a result is one specific value per input.
// The lane loops are trivially vectorizable (`#pragma omp simd` over
// independent accumulators) because no float op crosses a lane.
//
// The Lanczos bodies and the Chebyshev/CG surrogate operators call these
// directly, the SubCsr apply mirrors the same lane fold, and bench_kernels
// measures the vectorization win.
#pragma once

#include <cstddef>
#include <vector>

#if defined(_OPENMP)
#define FNE_PRAGMA_SIMD _Pragma("omp simd")
#else
#define FNE_PRAGMA_SIMD
#endif

namespace fne {

/// Fixed reduction granularity for dot products.  Every dot — serial or
/// parallel — sums each 1024-element chunk first and folds the chunk
/// partials in index order, so the floating-point result is one specific
/// value per input, not one per thread count (DESIGN.md §7).
inline constexpr std::size_t kDotChunk = 1024;

/// Fixed SIMD accumulator width inside a chunk.  Eight doubles = one
/// AVX-512 register or two AVX2 registers; the explicit lane fold makes
/// the value independent of which (if either) the compiler emits.
inline constexpr std::size_t kSimdLanes = 8;

/// Chunk- and lane-deterministic dot product.  OpenMP-parallel over
/// chunks at n >= kSpectralParallelDim; identical bits either way.
[[nodiscard]] double spectral_dot(const std::vector<double>& a, const std::vector<double>& b);

/// sqrt(spectral_dot(a, a)).
[[nodiscard]] double spectral_norm(const std::vector<double>& a);

/// y += alpha * x.  Elementwise (no reduction), so SIMD and OpenMP are
/// trivially bit-safe.
void spectral_axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// x -= Σ_i <b_i, x> b_i over basis[0..count), classical Gram–Schmidt:
/// all coefficients against the incoming x first, then one fused blocked
/// rank-`count` update.  Two calls per Krylov step (CGS2) match the
/// stability of two-pass modified Gram–Schmidt while streaming every
/// basis vector exactly once per pass and exposing both loops to OpenMP.
/// Deterministic for any thread count: each coefficient is a chunked dot,
/// and each element of x subtracts its contributions in basis order
/// within its block.
void spectral_orthogonalize(const std::vector<std::vector<double>>& basis, std::size_t count,
                            std::vector<double>& x, std::vector<double>& coeff);

}  // namespace fne
