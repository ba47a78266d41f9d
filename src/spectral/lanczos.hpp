// Lanczos iteration with full reorthogonalization for the smallest
// eigenpairs of an implicit symmetric operator (DESIGN.md §10).
//
// One entry point, lanczos_smallest, serves every solve.  The Krylov
// width picks its body: width 1 runs the rank-1 three-term recurrence,
// width >= 2 the block recurrence (LanczosOptions::block_size).  Each
// body iterates either the operator itself, deciding convergence from
// its own projected matrix (the Ritz estimate |β·z_last| for rank 1,
// the coupling-row bound for the block), or a surrogate of it (Chebyshev
// filter, shift-invert), deciding convergence by the true residual
// against the original operator.  One mode dispatch picks the operator
// for both bodies.
//
// Full reorthogonalization is O(iter^2 · n) but rock solid; iteration
// counts stay modest (<= 300) for the graph sizes this library handles.
// It runs as two-pass classical Gram–Schmidt (CGS2): all coefficients
// against the incoming vector, then one fused blocked rank-k update —
// the dominant FLOPs of a solve, streamed once per pass and OpenMP-
// parallel above kSpectralParallelDim (spectral/operator.hpp).
// Deflation vectors (e.g. the all-ones kernel of a connected Laplacian)
// are projected out of every Krylov vector.
//
// Determinism contract (DESIGN.md §7): every reduction (dot, norm, the
// rank-k update) uses a fixed 1024-element chunk order regardless of the
// thread count or whether the parallel path is taken at all, and the
// block body's dense Rayleigh–Ritz solve is sequential, so a solve is a
// pure function of (operator, n, deflation, options) — OMP_NUM_THREADS
// never changes a bit of the result.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace fne {

/// Convergence-acceleration mode of a solve (DESIGN.md §10).
///
///   kPlain       — Krylov recurrence directly on the operator.
///   kFiltered    — Chebyshev polynomial filtering: the recurrence runs
///                  on s·T_d(ℓ(L)), an affine-mapped degree-d Chebyshev
///                  polynomial that damps [cut, upper] into [-1, 1] and
///                  amplifies the bottom cluster exponentially, so
///                  clustered low spectra separate in tens instead of
///                  thousands of iterations.  Needs op_upper_bound
///                  (Gershgorin over SubCsr rows for Laplacians).
///                  The default of every library consumer (Fiedler
///                  solve, cut finder, metrics, certificates), at any
///                  size: it opens with a short plain probe, so a cheap
///                  spectrum converges there and never pays for the filter.
///   kShiftInvert — the recurrence runs on -(L - σI)^{-1}, applied by a
///                  deterministic chunk-ordered CG inner solve; for the
///                  near-singular cases filtering can't crack.  Every
///                  outer step costs a full CG solve, but it is the only
///                  mode that clears bench_prune_engine's blocked k = 4
///                  gate (DESIGN.md §10 has the measurements).
///
/// In every accelerated mode eigenvalues are recovered by Rayleigh
/// quotient against the ORIGINAL operator and convergence is decided by
/// the true residual ‖Lx − ρx‖ ≤ tolerance, so tolerances stay
/// comparable across modes.  The determinism contract is unchanged: a
/// solve is a pure function of its inputs for ANY OMP thread count.
enum class SpectralMode { kPlain, kFiltered, kShiftInvert };

/// Acceleration knobs of a solve.  No user surface sets them: every
/// library consumer runs the default filtered solve, and the other modes
/// are reached only from bench_prune_engine and the tests.
struct SpectralAccel {
  SpectralMode mode = SpectralMode::kPlain;
  /// Upper bound on the operator spectrum (REQUIREd finite in filtered
  /// mode).  For a SubCsr Laplacian use gershgorin_upper_bound(); for -L
  /// the bound is 0.
  double op_upper_bound = std::numeric_limits<double>::quiet_NaN();
  /// Shift σ for kShiftInvert.  0 targets the bottom of a PSD operator
  /// whose kernel is deflated (the Fiedler case).
  double shift = 0.0;
  /// Inner-CG relative residual; tight so the Krylov recurrence sees a
  /// consistent operator.
  double cg_tolerance = 1e-10;
  int cg_max_iterations = 4000;
};

struct LanczosResult {
  std::vector<double> values;               ///< converged Ritz values, ascending
  std::vector<std::vector<double>> vectors; ///< matching Ritz vectors (unit norm)
  int iterations = 0;
  bool converged = false;
};

/// Reusable buffers for repeated Lanczos solves.  The Krylov basis is the
/// dominant allocation of an eigensolve (iterations × n doubles); pooling
/// it across the cull iterations of a prune run eliminates that traffic.
/// Contents are scratch — only capacity is carried between calls.
struct LanczosScratch {
  std::vector<std::vector<double>> basis;
  std::vector<double> w;
  std::vector<double> q;
  std::vector<double> coeff;  ///< Gram–Schmidt coefficient buffer

  /// Pooled heap footprint (capacities).  The Krylov basis dominates an
  /// engine's resident memory, so the cache budget must see it.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = (w.capacity() + q.capacity() + coeff.capacity()) * sizeof(double) +
                        basis.capacity() * sizeof(std::vector<double>);
    for (const std::vector<double>& b : basis) total += b.capacity() * sizeof(double);
    return total;
  }
};

/// Options of one solve.
struct LanczosOptions {
  int num_eigenpairs = 1;  ///< how many smallest pairs to extract
  /// Krylov width; <= 0 means min(2, num_eigenpairs).  Width 1 runs the
  /// rank-1 three-term recurrence: Ritz pairs from the tridiagonal T,
  /// checked every 10 steps.  Width >= 2 runs the block recurrence:
  /// `block_size` start vectors expanded one operator apply at a time
  /// into one basis, every new vector CGS2+DGKS-reorthogonalized against
  /// the whole basis, and Rayleigh–Ritz on the dense projected matrix on
  /// a geometric cadence (DESIGN.md §9).  The block shares the bottom of
  /// the spectrum across the k >= 2 wanted pairs instead of re-converging
  /// through it per pair, and resolves the eigenvalue multiplicities mesh
  /// Laplacians are full of.  Width 2 is the measured sweet spot for
  /// k >= 2: wide enough that degenerate pairs converge together, narrow
  /// enough that the per-direction polynomial degree (basis / block)
  /// stays high.  Width 1 is the cheaper body at k = 1 (DESIGN.md §10);
  /// set block_size = 1 for a rank-1 solve at k >= 2.
  int block_size = 0;
  /// Krylov basis cap, one apply of the iterated operator per vector
  /// (memory: max_iterations × n); REQUIREd >= num_eigenpairs.
  int max_iterations = 300;
  double tolerance = 1e-9;  ///< residual bound per wanted pair
  std::uint64_t seed = 7;
  /// Optional warm-start vector of a width-1 solve (length n,
  /// pre-deflation).  It is projected against `deflation` and normalized
  /// internally; a degenerate warm start falls back to the seeded random
  /// start.  nullptr = random start.  A block solve starts from seeded
  /// random vectors.
  const std::vector<double>* initial = nullptr;
  /// Optional buffer pool; nullptr allocates locally.
  LanczosScratch* scratch = nullptr;
  /// Acceleration mode and its knobs.
  SpectralAccel accel;
};

using LinearOperator = std::function<void(const std::vector<double>&, std::vector<double>&)>;

/// Smallest eigenpairs of `op` (dimension n) orthogonal to `deflation`.
[[nodiscard]] LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n,
                                             const std::vector<std::vector<double>>& deflation,
                                             const LanczosOptions& options = {});

}  // namespace fne
