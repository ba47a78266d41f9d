#include "spectral/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "spectral/kernels.hpp"
#include "spectral/operator.hpp"  // kSpectralParallelDim
#include "spectral/tridiag.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {

namespace {

using Basis = std::vector<std::vector<double>>;

/// DGKS criterion: after one full Gram–Schmidt pass, re-orthogonalize
/// again only when the pass removed a large fraction of the vector (norm
/// dropped below 1/√2 of the pre-pass norm), i.e. when cancellation may
/// have left O(ε·‖before‖) residue in the basis span.  The decision is a
/// pure function of the computed norms, so determinism is unaffected.
constexpr double kDgks = 0.70710678118654752;

/// Plain-mode probe budget before a filtered solve commits to the
/// surrogate: cheap spectra converge inside the probe and return directly;
/// hard spectra pay 16 iterations (or num_eigenpairs, if more) for the
/// Ritz estimates that place the filter cut (DESIGN.md §10).
constexpr int kFilterProbeIterations = 16;

/// Largest Chebyshev degree a filtered solve picks.  One surrogate apply
/// costs `degree` base applies, and far higher degrees overflow the
/// filtered spectrum until the tridiagonal QL step fails to converge.
constexpr int kMaxFilterDegree = 24;

Basis normalize_deflation(const Basis& deflation) {
  Basis defl = deflation;
  for (auto& b : defl) {
    const double nb = spectral_norm(b);
    FNE_REQUIRE(nb > 0.0, "zero deflation vector");
    for (auto& x : b) x /= nb;
  }
  return defl;
}

// ---------------------------------------------------------------------------
// Surrogate operators (DESIGN.md §10).  Both are pure functions of their
// inputs: the Chebyshev recurrence is elementwise on top of the base apply,
// and the CG inner solve uses only the chunk-deterministic kernels, so a
// surrogate apply is bit-identical for any OMP thread count.
// ---------------------------------------------------------------------------

/// How the Chebyshev surrogate maps the base spectrum, fixed before the
/// accelerated solve starts from the probe's Ritz estimates.
struct FilterPlan {
  bool usable = false;
  double map_mul = 0.0;  ///< ℓ(λ) = map_mul·λ + map_add sends [cut, upper] to [-1, 1]
  double map_add = 0.0;
  double sign = 1.0;     ///< s = (-1)^{d+1}: makes s·T_d(ℓ(λ)) most negative at the bottom
  int degree = 0;
};

/// Place the damping interval from probe Ritz values: the want-th smallest
/// Ritz value θ bounds the want-th smallest eigenvalue from above, so a cut
/// 10% of the way from θ to the upper bound keeps every wanted eigenvalue in
/// the amplified region.  The degree grows as the wanted fraction of
/// the spectrum shrinks (d ≈ 5/(2√r), r = relative cut position), clamped to
/// [6, kMaxFilterDegree] so one surrogate apply stays a bounded number of base applies.
FilterPlan plan_filter(const std::vector<double>& probe_values, int want, double upper) {
  FilterPlan plan;
  if (probe_values.empty() || !std::isfinite(upper)) return plan;
  const double lo = probe_values.front();
  const std::size_t theta_idx =
      std::min<std::size_t>(probe_values.size(), static_cast<std::size_t>(want)) - 1;
  const double theta = probe_values[theta_idx];
  const double cut = theta + 0.1 * (upper - theta);
  if (!(cut < upper) || !(upper - cut > 1e-12 * std::max(1.0, std::fabs(upper)))) return plan;
  const double r = std::clamp((cut - lo) / (upper - lo), 1e-6, 0.9);
  const int degree =
      std::clamp(static_cast<int>(std::ceil(5.0 / (2.0 * std::sqrt(r)))), 6, kMaxFilterDegree);
  plan.usable = true;
  plan.map_mul = 2.0 / (upper - cut);
  plan.map_add = -(upper + cut) / (upper - cut);
  plan.degree = degree;
  plan.sign = degree % 2 == 1 ? 1.0 : -1.0;
  return plan;
}

/// y = s·T_d(ℓ(L)) x via the three-term recurrence
/// t_{k+1} = 2(map_mul·L·t_k + map_add·t_k) − t_{k−1}.  Eigenvalues below
/// the cut map below −1 where |T_d| grows like cosh(d·acosh|ℓ|) — the
/// bottom cluster separates exponentially in d while [cut, upper] stays
/// damped inside [−1, 1].
class ChebyshevSurrogate {
 public:
  ChebyshevSurrogate(const LinearOperator& base, const FilterPlan& plan)
      : base_(&base), plan_(plan) {
    FNE_REQUIRE(plan.usable && plan.degree >= 1, "unusable filter plan");
  }

  void apply(const std::vector<double>& x, std::vector<double>& out) const {
    const std::size_t n = x.size();
    t_prev_ = x;
    t_cur_.resize(n);
    y_.resize(n);
    (*base_)(x, y_);
    elementwise_map1(n);
    for (int k = 2; k <= plan_.degree; ++k) {
      (*base_)(t_cur_, y_);
      elementwise_step(n);
      std::swap(t_prev_, t_cur_);
      std::swap(t_cur_, y_);
    }
    out.resize(n);
    const double s = plan_.sign;
    const double* tp = t_cur_.data();
    double* op = out.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) op[i] = s * tp[i];
  }

 private:
  // t_cur = map_mul·(L x) + map_add·x  (T_1 of the mapped operator).
  void elementwise_map1(std::size_t n) const {
    const double mul = plan_.map_mul;
    const double add = plan_.map_add;
    const double* xp = t_prev_.data();
    const double* yp = y_.data();
    double* tp = t_cur_.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) tp[i] = mul * yp[i] + add * xp[i];
  }

  // y = 2·(map_mul·(L t_cur) + map_add·t_cur) − t_prev, overwriting the
  // base-apply output in place; the caller's swaps advance the recurrence.
  void elementwise_step(std::size_t n) const {
    const double mul = plan_.map_mul;
    const double add = plan_.map_add;
    const double* tc = t_cur_.data();
    const double* tp = t_prev_.data();
    double* yp = y_.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) yp[i] = 2.0 * (mul * yp[i] + add * tc[i]) - tp[i];
  }

  const LinearOperator* base_;
  FilterPlan plan_;
  mutable std::vector<double> t_prev_, t_cur_, y_;
};

/// y = −(L − σI)^{-1} x via conjugate gradients restricted to the deflated
/// subspace.  The RHS and every residual are projected against the
/// deflation span, so with σ = 0 and a PSD operator whose kernel is
/// deflated (the Fiedler case) the system CG actually sees is positive
/// definite.  Non-positive curvature breaks the loop deterministically —
/// the current iterate is still a fixed function of the inputs.
class ShiftInvertSurrogate {
 public:
  ShiftInvertSurrogate(const LinearOperator& base, const Basis& defl,
                       double shift, double tolerance, int max_iterations)
      : base_(&base),
        defl_(&defl),
        shift_(shift),
        tolerance_(tolerance),
        max_iterations_(max_iterations) {}

  void apply(const std::vector<double>& b, std::vector<double>& out) const {
    const std::size_t n = b.size();
    r_ = b;
    spectral_orthogonalize(*defl_, defl_->size(), r_, coeff_);
    x_.assign(n, 0.0);
    const double nb = spectral_norm(r_);
    out.resize(n);
    if (!(nb > 0.0)) {
      std::fill(out.begin(), out.end(), 0.0);
      return;
    }
    p_ = r_;
    ap_.resize(n);
    double rs = nb * nb;
    for (int it = 0; it < max_iterations_; ++it) {
      (*base_)(p_, ap_);
      if (shift_ != 0.0) spectral_axpy(-shift_, p_, ap_);
      const double pap = spectral_dot(p_, ap_);
      if (!(pap > 0.0)) break;  // curvature lost (kernel direction / rounding)
      const double a = rs / pap;
      spectral_axpy(a, p_, x_);
      spectral_axpy(-a, ap_, r_);
      spectral_orthogonalize(*defl_, defl_->size(), r_, coeff_);
      const double rs_new = spectral_dot(r_, r_);
      if (std::sqrt(rs_new) <= tolerance_ * nb) break;
      const double beta = rs_new / rs;
      double* pp = p_.data();
      const double* rp = r_.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
      FNE_PRAGMA_SIMD
#endif
      for (std::size_t i = 0; i < n; ++i) pp[i] = rp[i] + beta * pp[i];
      rs = rs_new;
    }
    const double* xp = x_.data();
    double* op = out.data();
#ifdef _OPENMP
#pragma omp parallel for simd schedule(static) if (n >= kSpectralParallelDim)
#else
    FNE_PRAGMA_SIMD
#endif
    for (std::size_t i = 0; i < n; ++i) op[i] = -xp[i];
  }

 private:
  const LinearOperator* base_;
  const Basis* defl_;
  double shift_;
  double tolerance_;
  int max_iterations_;
  mutable std::vector<double> r_, p_, ap_, x_, coeff_;
};

// ---------------------------------------------------------------------------
// Ritz extraction.  A body that iterates the base operator returns its Ritz
// pairs as they stand.  A body that iterates a surrogate uses the surrogate
// Ritz pairs only to select a basis direction: eigenvalues are recovered by
// Rayleigh quotient against the ORIGINAL operator and convergence is the
// true residual ‖Lx − ρx‖ ≤ tolerance, so a converged result means the same
// thing in every mode.
// ---------------------------------------------------------------------------

/// Unit Ritz vector of pair e over basis[0..m); z is the row-major m×ld
/// eigenvector matrix of the projected problem (column e = pair e).
std::vector<double> ritz_vector(const Basis& basis, std::size_t m, const std::vector<double>& z,
                                std::size_t ld, int e, std::size_t n) {
  std::vector<double> vec(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    spectral_axpy(z[i * ld + static_cast<std::size_t>(e)], basis[i], vec);
  }
  const double nv = spectral_norm(vec);
  if (nv > 0.0) {
    for (auto& x : vec) x /= nv;
  }
  return vec;
}

/// The `want` smallest Ritz pairs as they stand (values ascending).
void ritz_pairs(const Basis& basis, std::size_t m, const std::vector<double>& values,
                const std::vector<double>& z, std::size_t ld, int want, std::size_t n,
                LanczosResult& out) {
  out.values.assign(values.begin(), values.begin() + want);
  out.vectors.clear();
  out.vectors.reserve(static_cast<std::size_t>(want));
  for (int e = 0; e < want; ++e) out.vectors.push_back(ritz_vector(basis, m, z, ld, e, n));
}

/// The `want` smallest surrogate Ritz vectors, Rayleigh-quotiented and
/// residual-tested against the base operator; `converged` iff every
/// residual is within tolerance.
LanczosResult rayleigh_candidates(const LinearOperator& base_op, const Basis& basis,
                                  std::size_t m, const std::vector<double>& z, std::size_t ld,
                                  int want, double tolerance, std::size_t n) {
  LanczosResult out;
  out.converged = true;
  std::vector<double> tmp(n);
  std::vector<std::pair<double, int>> order;
  Basis vecs;
  for (int e = 0; e < want; ++e) {
    std::vector<double> vec = ritz_vector(basis, m, z, ld, e, n);
    base_op(vec, tmp);
    const double rho = spectral_dot(vec, tmp);
    spectral_axpy(-rho, vec, tmp);
    if (spectral_norm(tmp) > tolerance) out.converged = false;
    order.emplace_back(rho, e);
    vecs.push_back(std::move(vec));
  }
  // The surrogate ordering need not match the base ordering exactly (the
  // filter is only monotone below the cut); sort by ρ, index-stable.
  std::stable_sort(order.begin(), order.end());
  for (const auto& [rho, e] : order) {
    out.values.push_back(rho);
    out.vectors.push_back(std::move(vecs[static_cast<std::size_t>(e)]));
  }
  return out;
}

/// Pooled buffers of a solve: the caller's scratch, or a local one.
struct BasisPool {
  explicit BasisPool(LanczosScratch* scratch) : s(scratch != nullptr ? *scratch : local) {}
  void push(const std::vector<double>& v) {
    if (s.basis.size() <= count) s.basis.emplace_back();
    s.basis[count] = v;
    ++count;
  }
  LanczosScratch local;
  LanczosScratch& s;
  std::size_t count = 0;  ///< live basis vectors s.basis[0..count)
};

// ---------------------------------------------------------------------------
// The two Krylov bodies.  Each iterates `op` with full CGS2+DGKS
// reorthogonalization.  With base == nullptr, `op` is the operator itself
// and the body decides convergence from its own projected matrix; otherwise
// `op` is a surrogate of *base and convergence goes through
// rayleigh_candidates (the projected rows describe the surrogate, whose
// residual scale has no relation to the base tolerance).
// ---------------------------------------------------------------------------

/// Rank-1 Lanczos: one three-term Krylov chain, Ritz pairs from the
/// tridiagonal T, convergence checked every 10 steps.  `warm_start` is
/// projected and normalized; a degenerate one falls back to the seeded
/// random start.
LanczosResult lanczos_rank1(const LinearOperator& op, const LinearOperator* base, std::size_t n,
                            const Basis& defl, std::size_t usable, const LanczosOptions& options,
                            const std::vector<double>* warm_start) {
  const int max_iter = static_cast<int>(
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));
  BasisPool pool(options.scratch);
  const Basis& basis = pool.s.basis;  // Lanczos vectors q_1..q_j
  std::vector<double>& coeff = pool.s.coeff;
  std::vector<double> alpha;
  std::vector<double> beta;

  Rng rng(options.seed);
  std::vector<double>& q = pool.s.q;
  q.resize(n);
  const bool warm = warm_start != nullptr && warm_start->size() == n;
  if (warm) {
    q = *warm_start;
  } else {
    for (auto& x : q) x = rng.uniform01() - 0.5;
  }
  spectral_orthogonalize(defl, defl.size(), q, coeff);
  {
    double nq = spectral_norm(q);
    if (warm && !(nq > 1e-12)) {
      // Degenerate warm start (e.g. orthogonal remnant): seeded random fallback.
      for (auto& x : q) x = rng.uniform01() - 0.5;
      spectral_orthogonalize(defl, defl.size(), q, coeff);
      nq = spectral_norm(q);
    }
    FNE_REQUIRE(nq > 0.0, "degenerate start vector");
    for (auto& x : q) x /= nq;
  }
  pool.push(q);

  std::vector<double>& w = pool.s.w;
  w.resize(n);
  for (int j = 0; j < max_iter; ++j) {
    const std::vector<double>& qj = basis[pool.count - 1];
    op(qj, w);
    const double a = spectral_dot(qj, w);
    alpha.push_back(a);
    // w -= a*q_j + b_{j-1}*q_{j-1}; then full reorthogonalization.
    spectral_axpy(-a, qj, w);
    if (j > 0) spectral_axpy(-beta.back(), basis[pool.count - 2], w);
    spectral_orthogonalize(defl, defl.size(), w, coeff);
    const double before = spectral_norm(w);
    spectral_orthogonalize(basis, pool.count, w, coeff);
    double b = spectral_norm(w);
    if (b < kDgks * before) {
      spectral_orthogonalize(basis, pool.count, w, coeff);
      b = spectral_norm(w);
    }
    // Convergence check every few steps, at the cap, or on breakdown.
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if (last || (j + 1) % 10 == 0) {
      std::vector<double> values;
      std::vector<double> z;
      tridiag_eigen(alpha, beta, values, &z);
      const std::size_t k = alpha.size();
      const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(k));
      LanczosResult pairs;
      if (base != nullptr) {
        pairs = rayleigh_candidates(*base, basis, k, z, k, want, options.tolerance, n);
      } else {
        // Ritz estimate: pair e's residual is |β·z_last,e|.  Breakdown
        // (b ~ 0) means an invariant subspace, so its Ritz pairs are exact.
        pairs.converged = true;
        for (int e = 0; e < want && pairs.converged; ++e) {
          if (std::fabs(b * z[(k - 1) * k + static_cast<std::size_t>(e)]) > options.tolerance) {
            pairs.converged = false;
          }
        }
        if (pairs.converged || last) ritz_pairs(basis, k, values, z, k, want, n, pairs);
        pairs.converged = pairs.converged || b < 1e-13;
      }
      if (pairs.converged || last) {
        pairs.iterations = j + 1;
        return pairs;
      }
    }
    beta.push_back(b);
    for (auto& x : w) x /= b;
    pool.push(w);
  }
  return {};  // unreachable: max_iter >= 1, and the last step always returns
}

/// Block Lanczos: `width` start vectors expanded one operator apply at a
/// time into one basis, Rayleigh–Ritz on the dense projected matrix.
/// `warm_starts` (probe Ritz vectors) fill the start block first;
/// degenerate ones are skipped and seeded random vectors fill the rest.
LanczosResult lanczos_block(const LinearOperator& op, const LinearOperator* base, std::size_t n,
                            const Basis& defl, std::size_t usable, const LanczosOptions& options,
                            std::size_t width, const Basis* warm_starts) {
  const std::size_t max_basis =
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations));
  const std::size_t block = std::min(max_basis, width);
  BasisPool pool(options.scratch);
  const Basis& basis = pool.s.basis;
  std::vector<double>& coeff = pool.s.coeff;

  // Projected matrix T = Qᵀ A Q, stored dense row-major with leading
  // dimension max_basis.  Column j is filled from the FIRST CGS pass of
  // column j's reorthogonalization (coeff = Qᵀ(A q_j) before any
  // subtraction), so Rayleigh–Ritz costs no extra dots; the β coupling to
  // the remainder vector is patched in at append time.  Full
  // reorthogonalization makes rows i >= m of T the COMPLETE outside-span
  // coupling of the first m columns, which is what the residual bound
  // below reads.  (The DGKS second pass subtracts O(ε)-level corrections
  // that are not folded back into T — standard, and far below tolerance.)
  std::vector<double> tmat(max_basis * max_basis, 0.0);

  Rng rng(options.seed);
  std::vector<double>& q = pool.s.q;
  q.resize(n);

  // Orthonormalize the current q against deflation and the basis so far;
  // push it if anything survives.  The norm is measured after the final
  // deflation sweep: a stale norm would normalize deflation noise into the
  // basis.
  const auto try_push_seed = [&]() -> bool {
    spectral_orthogonalize(defl, defl.size(), q, coeff);
    const double before = spectral_norm(q);
    spectral_orthogonalize(basis, pool.count, q, coeff);
    if (spectral_norm(q) < kDgks * before) spectral_orthogonalize(basis, pool.count, q, coeff);
    spectral_orthogonalize(defl, defl.size(), q, coeff);
    const double nq = spectral_norm(q);
    if (!(nq > 1e-10)) return false;
    for (auto& x : q) x /= nq;
    pool.push(q);
    return true;
  };
  // A few redraws tolerate unlucky random draws; then the orthogonal
  // complement is treated as numerically exhausted.
  const auto seed_vector = [&]() -> bool {
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (auto& x : q) x = rng.uniform01() - 0.5;
      if (try_push_seed()) return true;
    }
    return false;
  };
  if (warm_starts != nullptr) {
    for (const auto& ws : *warm_starts) {
      if (pool.count >= block) break;
      if (ws.size() != n) continue;
      q = ws;
      try_push_seed();
    }
  }
  for (std::size_t i = pool.count; i < block; ++i) {
    if (!seed_vector()) break;
  }
  FNE_REQUIRE(pool.count > 0, "degenerate start block");

  std::vector<double>& w = pool.s.w;
  w.resize(n);
  std::vector<double> tcol;
  std::vector<double> ritz_values;
  std::vector<double> ritz_vectors;
  std::vector<double> projected;
  // Remainder norms of columns whose orthogonalized remainder was NOT
  // appended (basis cap reached).  Their coupling is invisible to the
  // stored T rows, so the residual bound must re-add it — without this a
  // capped solve would read empty coupling rows as "exactly converged".
  std::vector<double> dropped(max_basis, 0.0);

  // Rayleigh–Ritz cadence: first after one block, then geometrically
  // (~1.5x), so the dense O(m³) Householder+QL solves stay subdominant
  // to the O(m²·n) reorthogonalization stream.
  std::size_t processed = 0;
  std::size_t next_check = block;

  while (processed < pool.count) {
    const std::size_t j = processed;
    op(basis[j], w);
    spectral_orthogonalize(defl, defl.size(), w, coeff);
    const double before = spectral_norm(w);
    spectral_orthogonalize(basis, pool.count, w, coeff);
    tcol.assign(coeff.begin(), coeff.begin() + static_cast<std::ptrdiff_t>(pool.count));
    if (spectral_norm(w) < kDgks * before) spectral_orthogonalize(basis, pool.count, w, coeff);
    // Final deflation sweep, then the norm is measured POST-sweep: the
    // basis passes leave an O(ε) deflation residue, and near exhaustion
    // that residue can dominate the true remainder — normalizing by a
    // pre-sweep norm would push a near-zero vector into the basis, which
    // surfaces as ghost copies of the deflated eigenvalues.
    spectral_orthogonalize(defl, defl.size(), w, coeff);
    const double bnorm = spectral_norm(w);
    for (std::size_t i = 0; i < pool.count; ++i) {
      tmat[i * max_basis + j] = tcol[i];
      tmat[j * max_basis + i] = tcol[i];
    }
    ++processed;
    if (bnorm > 1e-13 && pool.count < max_basis) {
      for (auto& x : w) x /= bnorm;
      tmat[pool.count * max_basis + j] = bnorm;
      tmat[j * max_basis + pool.count] = bnorm;
      pool.push(w);
    } else {
      // This Krylov direction is exhausted (bnorm ~ 0) or the cap is
      // reached; the band narrows and the loop drains the remaining
      // columns.  The un-appended remainder still couples A Q_m out of
      // the basis — charge it to the residual bound below.
      dropped[j] = bnorm;
    }

    const bool no_more = processed == pool.count;
    if (processed < next_check && !no_more) continue;
    next_check = processed + std::max(block, processed / 2);

    const std::size_t m = processed;
    const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(m));
    projected.assign(m * m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) projected[r * m + c] = tmat[r * max_basis + c];
    }
    sym_eigen(projected, m, ritz_values, &ritz_vectors);

    LanczosResult pairs;
    if (base != nullptr) {
      pairs = rayleigh_candidates(*base, basis, m, ritz_vectors, m, want, options.tolerance, n);
    } else {
      // Residual of Ritz pair (θ_e, y_e): A Q_m y - θ Q_m y lies in
      // span{q_m..q_{count-1}} ∪ {un-appended remainders} (full
      // reorthogonalization leaves nothing else).  The basis part has
      // coefficient (T[i][0..m) · y_e) on q_i — stored above; the dropped
      // remainders are bounded by the triangle inequality.  When the
      // deflated space itself is exhausted both parts vanish and the Ritz
      // values are exact, so the zero residual is the truth.
      pairs.converged = true;
      for (int e = 0; e < want && pairs.converged; ++e) {
        const auto y = [&](std::size_t c) {
          return ritz_vectors[c * m + static_cast<std::size_t>(e)];
        };
        double r2 = 0.0;
        for (std::size_t i = m; i < pool.count; ++i) {
          double s = 0.0;
          for (std::size_t c = 0; c < m; ++c) s += tmat[i * max_basis + c] * y(c);
          r2 += s * s;
        }
        double resid = std::sqrt(r2);
        for (std::size_t c = 0; c < m; ++c) {
          if (dropped[c] > 0.0) resid += dropped[c] * std::fabs(y(c));
        }
        if (resid > options.tolerance) pairs.converged = false;
      }
      if (pairs.converged || no_more) {
        ritz_pairs(basis, m, ritz_values, ritz_vectors, m, want, n, pairs);
      }
    }
    if (!pairs.converged && !no_more) continue;
    pairs.iterations = static_cast<int>(m);
    return pairs;
  }
  return {};  // unreachable: the drain loop always returns at no_more
}

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n, const Basis& deflation,
                               const LanczosOptions& options) {
  FNE_REQUIRE(n >= 1, "empty operator");
  FNE_REQUIRE(options.num_eigenpairs >= 1, "need at least one eigenpair");
  FNE_REQUIRE(options.max_iterations >= options.num_eigenpairs,
              "max_iterations must cover the wanted eigenpairs");
  const Basis defl = normalize_deflation(deflation);
  const std::size_t usable =
      n > defl.size() ? n - defl.size() : 0;  // dimension of the deflated space
  if (usable == 0) {
    LanczosResult result;
    result.converged = true;
    return result;
  }

  // One Krylov solve of `it` by the body the width picks.  `base` is
  // nullptr when `it` is the operator itself, else the operator `it` is a
  // surrogate of; `probe` is the filtered solve's plain probe once there
  // is one, and its Ritz vectors replace options.initial as warm starts.
  const auto width = static_cast<std::size_t>(
      options.block_size > 0 ? options.block_size : std::min(2, options.num_eigenpairs));
  const auto body = [&](const LinearOperator& it, const LinearOperator* base,
                        const LanczosOptions& opts, const LanczosResult* probe) {
    if (width > 1) {
      return lanczos_block(it, base, n, defl, usable, opts, width,
                           probe != nullptr ? &probe->vectors : nullptr);
    }
    const std::vector<double>* warm =
        probe != nullptr && !probe->vectors.empty() ? &probe->vectors.front() : opts.initial;
    return lanczos_rank1(it, base, n, defl, usable, opts, warm);
  };

  // The mode dispatch (DESIGN.md §10).
  const SpectralAccel& accel = options.accel;
  if (accel.mode == SpectralMode::kPlain) return body(op, nullptr, options, nullptr);

  if (accel.mode == SpectralMode::kShiftInvert) {
    ShiftInvertSurrogate surrogate(op, defl, accel.shift, accel.cg_tolerance,
                                   accel.cg_max_iterations);
    const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                            std::vector<double>& y) { surrogate.apply(x, y); };
    return body(sur, &op, options, nullptr);
  }

  // kFiltered: probe with the plain solver first.  Cheap spectra converge
  // inside the probe budget and return directly; otherwise the probe's
  // Ritz values place the filter cut and its vectors warm-start the
  // accelerated solve.
  FNE_REQUIRE(std::isfinite(accel.op_upper_bound),
              "filtered mode needs a finite accel.op_upper_bound (e.g. gershgorin_upper_bound)");
  LanczosOptions probe_options = options;
  probe_options.max_iterations =
      std::min(options.max_iterations, std::max(kFilterProbeIterations, options.num_eigenpairs));
  LanczosResult probe = body(op, nullptr, probe_options, nullptr);
  if (probe.converged) return probe;

  const FilterPlan plan = plan_filter(probe.values, options.num_eigenpairs, accel.op_upper_bound);
  if (!plan.usable) return body(op, nullptr, options, nullptr);

  ChebyshevSurrogate surrogate(op, plan);
  const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                          std::vector<double>& y) { surrogate.apply(x, y); };
  LanczosResult result = body(sur, &op, options, &probe);
  result.iterations += probe.iterations;
  return result;
}

}  // namespace fne
