// Lanczos iteration with full reorthogonalization for the smallest
// eigenpairs of an implicit symmetric operator (DESIGN.md §10).
//
// Two Krylov bodies serve every solve: a rank-1 three-term recurrence
// (lanczos_smallest) and a block recurrence (lanczos_smallest_block).
// Each iterates either the operator itself, deciding convergence from its
// own projected matrix (the Ritz estimate |β·z_last| for rank 1, the
// coupling-row bound for the block), or a surrogate of it (Chebyshev
// filter, shift-invert), deciding convergence by the true residual
// against the original operator.  One mode dispatch picks the operator
// for both entry points.
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
// thread count or whether the parallel path is taken at all, so a solve
// is a pure function of (operator, n, deflation, options) — OMP_NUM_THREADS
// never changes a bit of the result.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
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

/// Parse "plain" | "filtered" | "shift_invert" (REQUIREs a valid name,
/// listing the alternatives — registry-style hygiene).  "auto", the name
/// configs use for the default, parses to kFiltered.
[[nodiscard]] SpectralMode spectral_mode_from_string(const std::string& name);
[[nodiscard]] const char* spectral_mode_name(SpectralMode mode);

/// Largest Chebyshev degree a filtered solve accepts; the auto degree is
/// clamped to [6, kMaxFilterDegree] as well.  One surrogate apply costs
/// `degree` base applies, and far higher degrees overflow the filtered
/// spectrum until the tridiagonal QL step fails to converge.
inline constexpr int kMaxFilterDegree = 24;

/// Narrow a parsed filter_degree (campaign JSON, metric params, CLI flag)
/// to int: REQUIREs 0 <= degree <= kMaxFilterDegree before the cast, so
/// neither an oversized nor a wrapping value reaches the solver.
[[nodiscard]] int filter_degree_from_int(std::int64_t degree);

/// Acceleration knobs shared by the rank-1 and blocked solvers.
struct SpectralAccel {
  SpectralMode mode = SpectralMode::kPlain;
  /// Chebyshev degree d; <= 0 picks a degree from the probe-estimated
  /// cut ratio (clamped to [6, kMaxFilterDegree]).
  int filter_degree = 0;
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

struct LanczosOptions {
  int num_eigenpairs = 1;      ///< how many smallest pairs to extract
  int max_iterations = 300;
  double tolerance = 1e-9;     ///< residual bound |beta * y_last|
  std::uint64_t seed = 7;
  /// Optional warm-start vector (length n, pre-deflation).  It is projected
  /// against `deflation` and normalized internally; a degenerate warm start
  /// falls back to the seeded random start.  nullptr = random start.
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

/// Blocked (multi-vector) variant for the k >= 2 eigenpair consumers
/// (embedding spectral coordinates, expander certificates, DESIGN.md §9).
///
/// One block-Krylov basis serves every wanted pair: `block_size` start
/// vectors are expanded one operator apply at a time, every new vector is
/// CGS2+DGKS-reorthogonalized against the WHOLE basis (the same fused
/// rank-m update as the k = 1 path, so the dominant FLOPs stay streamed
/// and OpenMP-parallel above kSpectralParallelDim), and Rayleigh–Ritz on
/// the projected matrix extracts the k smallest pairs.  Against k
/// repeated deflated rank-1 solves this shares the bottom of the spectrum
/// instead of re-converging through it per pair, and — unlike a single
/// Krylov chain — resolves eigenvalue multiplicities (mesh Laplacians are
/// full of them) without deflation tricks.
///
/// Determinism contract: identical to lanczos_smallest — every reduction
/// is chunk-ordered, the dense Rayleigh–Ritz solve is sequential, and the
/// start block is a pure function of `seed`, so a solve is bit-identical
/// for ANY OMP thread count.
struct BlockLanczosOptions {
  int num_eigenpairs = 2;   ///< k smallest pairs to extract
  /// Start-block width; <= 0 means min(2, num_eigenpairs).  Width 2 is
  /// the measured sweet spot: wide enough that the degenerate pairs mesh
  /// Laplacians produce converge together, narrow enough that the
  /// per-direction polynomial degree (basis / block) stays high — a
  /// width-k block quadruples the basis a k = 4 solve needs.
  int block_size = 0;
  int max_basis = 300;      ///< total Krylov vectors cap (memory: max_basis x n)
  double tolerance = 1e-9;  ///< residual bound per wanted pair
  std::uint64_t seed = 7;
  LanczosScratch* scratch = nullptr;  ///< optional buffer pool
  /// Acceleration mode and its knobs.
  SpectralAccel accel;
};

[[nodiscard]] LanczosResult lanczos_smallest_block(
    const LinearOperator& op, std::size_t n,
    const std::vector<std::vector<double>>& deflation, const BlockLanczosOptions& options = {});

}  // namespace fne
