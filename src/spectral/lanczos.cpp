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

SpectralMode spectral_mode_from_string(const std::string& name) {
  if (name == "plain") return SpectralMode::kPlain;
  if (name == "filtered") return SpectralMode::kFiltered;
  if (name == "shift_invert") return SpectralMode::kShiftInvert;
  if (name == "auto") return SpectralMode::kFiltered;  // the default's name in configs
  FNE_REQUIRE(false, "unknown spectral_mode '" + name +
                         "' (expected plain | filtered | shift_invert | auto)");
  return SpectralMode::kPlain;  // unreachable
}

const char* spectral_mode_name(SpectralMode mode) {
  switch (mode) {
    case SpectralMode::kPlain: return "plain";
    case SpectralMode::kFiltered: return "filtered";
    case SpectralMode::kShiftInvert: return "shift_invert";
  }
  return "plain";
}

namespace {

// Thin local names for the shared chunk-deterministic kernels
// (spectral/kernels.hpp) so the solver bodies below read as before PR 6.
double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return spectral_dot(a, b);
}
double norm(const std::vector<double>& a) { return spectral_norm(a); }
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y) {
  spectral_axpy(alpha, x, y);
}
void orthogonalize(const std::vector<std::vector<double>>& basis, std::size_t count,
                   std::vector<double>& x, std::vector<double>& coeff) {
  spectral_orthogonalize(basis, count, x, coeff);
}

/// DGKS criterion: after one full Gram–Schmidt pass, re-orthogonalize
/// again only when the pass removed a large fraction of the vector (norm
/// dropped below 1/√2 of the pre-pass norm), i.e. when cancellation may
/// have left O(ε·‖before‖) residue in the basis span.  The decision is a
/// pure function of the computed norms, so determinism is unaffected.
constexpr double kDgks = 0.70710678118654752;

/// Plain-mode probe budget before a filtered solve commits to the
/// surrogate: cheap spectra converge inside the probe and return directly;
/// hard spectra pay 16 iterations for the Ritz estimates that place the
/// filter cut (DESIGN.md §10).
constexpr int kFilterProbeIterations = 16;

std::vector<std::vector<double>> normalize_deflation(
    const std::vector<std::vector<double>>& deflation) {
  std::vector<std::vector<double>> defl = deflation;
  for (auto& b : defl) {
    const double nb = norm(b);
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
/// the amplified region.  The auto degree grows as the wanted fraction of
/// the spectrum shrinks (d ≈ 5/(2√r), r = relative cut position), clamped to
/// [6, 24] so one surrogate apply stays a bounded number of base applies.
FilterPlan plan_filter(const std::vector<double>& probe_values, int want, int requested_degree,
                       double upper) {
  FilterPlan plan;
  if (probe_values.empty() || !std::isfinite(upper)) return plan;
  const double lo = probe_values.front();
  const std::size_t theta_idx =
      std::min<std::size_t>(probe_values.size(), static_cast<std::size_t>(want)) - 1;
  const double theta = probe_values[theta_idx];
  const double cut = theta + 0.1 * (upper - theta);
  if (!(cut < upper) || !(upper - cut > 1e-12 * std::max(1.0, std::fabs(upper)))) return plan;
  int degree = requested_degree;
  if (degree <= 0) {
    const double r = std::clamp((cut - lo) / (upper - lo), 1e-6, 0.9);
    degree = static_cast<int>(std::ceil(5.0 / (2.0 * std::sqrt(r))));
    degree = std::clamp(degree, 6, 24);
  }
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
  ShiftInvertSurrogate(const LinearOperator& base, const std::vector<std::vector<double>>& defl,
                       double shift, double tolerance, int max_iterations)
      : base_(&base),
        defl_(&defl),
        shift_(shift),
        tolerance_(tolerance),
        max_iterations_(max_iterations) {}

  void apply(const std::vector<double>& b, std::vector<double>& out) const {
    const std::size_t n = b.size();
    r_ = b;
    orthogonalize(*defl_, defl_->size(), r_, coeff_);
    x_.assign(n, 0.0);
    const double nb = norm(r_);
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
      if (shift_ != 0.0) axpy(-shift_, p_, ap_);
      const double pap = dot(p_, ap_);
      if (!(pap > 0.0)) break;  // curvature lost (kernel direction / rounding)
      const double a = rs / pap;
      axpy(a, p_, x_);
      axpy(-a, ap_, r_);
      orthogonalize(*defl_, defl_->size(), r_, coeff_);
      const double rs_new = dot(r_, r_);
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
  const std::vector<std::vector<double>>* defl_;
  double shift_;
  double tolerance_;
  int max_iterations_;
  mutable std::vector<double> r_, p_, ap_, x_, coeff_;
};

// ---------------------------------------------------------------------------
// Transformed-mode convergence: surrogate Ritz pairs are only a basis
// selection device.  Eigenvalues are recovered by Rayleigh quotient against
// the ORIGINAL operator and convergence is the true residual ‖Lx − ρx‖ ≤
// tolerance, so a converged result means the same thing in every mode.
// ---------------------------------------------------------------------------

struct TransformedCandidates {
  std::vector<std::vector<double>> vectors;  ///< unit candidates, ascending by ρ
  std::vector<double> values;                ///< matching Rayleigh quotients
  bool all_converged = true;
};

/// Assemble the `want` smallest surrogate Ritz vectors from basis[0..m)
/// (z is the row-major m×ld eigenvector matrix, column e = pair e), then
/// Rayleigh-quotient and residual-test each against the base operator.
TransformedCandidates rayleigh_candidates(const LinearOperator& base_op,
                                          const std::vector<std::vector<double>>& basis,
                                          std::size_t m, const std::vector<double>& z,
                                          std::size_t ld, int want, double tolerance,
                                          std::size_t n) {
  TransformedCandidates out;
  std::vector<double> tmp(n);
  std::vector<std::pair<double, int>> order;
  std::vector<std::vector<double>> vecs;
  for (int e = 0; e < want; ++e) {
    std::vector<double> vec(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      axpy(z[i * ld + static_cast<std::size_t>(e)], basis[i], vec);
    }
    const double nv = norm(vec);
    if (nv > 0.0) {
      for (auto& x : vec) x /= nv;
    }
    base_op(vec, tmp);
    const double rho = dot(vec, tmp);
    axpy(-rho, vec, tmp);
    if (norm(tmp) > tolerance) out.all_converged = false;
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

// ---------------------------------------------------------------------------
// Rank-1 bodies.  rank1_plain is the pre-PR-6 solver, bit for bit; the
// transformed body shares its recurrence but iterates the surrogate and
// decides convergence through rayleigh_candidates.
// ---------------------------------------------------------------------------

LanczosResult rank1_plain(const LinearOperator& op, std::size_t n,
                          const std::vector<std::vector<double>>& defl, std::size_t usable,
                          const LanczosOptions& options) {
  LanczosResult result;
  const int max_iter =
      static_cast<int>(std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));

  LanczosScratch local_scratch;
  LanczosScratch& scratch = options.scratch != nullptr ? *options.scratch : local_scratch;
  std::vector<std::vector<double>>& basis = scratch.basis;  // Lanczos vectors q_1..q_j
  std::vector<double>& coeff = scratch.coeff;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };
  std::vector<double> alpha;
  std::vector<double> beta;

  Rng rng(options.seed);
  std::vector<double>& q = scratch.q;
  q.resize(n);
  bool warm = options.initial != nullptr && options.initial->size() == n;
  if (warm) {
    q = *options.initial;
  } else {
    for (auto& x : q) x = rng.uniform01() - 0.5;
  }
  orthogonalize(defl, defl.size(), q, coeff);
  {
    double nq = norm(q);
    if (warm && !(nq > 1e-12)) {
      // Degenerate warm start (e.g. orthogonal remnant): seeded random fallback.
      for (auto& x : q) x = rng.uniform01() - 0.5;
      orthogonalize(defl, defl.size(), q, coeff);
      nq = norm(q);
    }
    FNE_REQUIRE(nq > 0.0, "degenerate start vector");
    for (auto& x : q) x /= nq;
  }
  push_basis(q);

  std::vector<double>& w = scratch.w;
  w.resize(n);
  for (int j = 0; j < max_iter; ++j) {
    op(basis[basis_count - 1], w);
    const double a = dot(basis[basis_count - 1], w);
    alpha.push_back(a);
    // w -= a*q_j + b_{j-1}*q_{j-1}; then full reorthogonalization.
    axpy(-a, basis[basis_count - 1], w);
    if (j > 0) axpy(-beta.back(), basis[basis_count - 2], w);
    orthogonalize(defl, defl.size(), w, coeff);
    const double before = norm(w);
    orthogonalize(basis, basis_count, w, coeff);
    double b = norm(w);
    if (b < kDgks * before) {
      orthogonalize(basis, basis_count, w, coeff);
      b = norm(w);
    }
    // Convergence check every few steps (or on breakdown).
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if (last || (j + 1) % 10 == 0) {
      std::vector<double> values;
      std::vector<double> z;
      tridiag_eigen(alpha, beta, values, &z);
      const std::size_t k = alpha.size();
      const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(k));
      bool all_converged = true;
      for (int e = 0; e < want; ++e) {
        const double resid = std::fabs(b * z[(k - 1) * k + static_cast<std::size_t>(e)]);
        if (resid > options.tolerance) {
          all_converged = false;
          break;
        }
      }
      if (all_converged || last) {
        result.iterations = j + 1;
        result.converged = all_converged || b < 1e-13;
        result.values.assign(values.begin(), values.begin() + want);
        result.vectors.assign(static_cast<std::size_t>(want), std::vector<double>(n, 0.0));
        for (int e = 0; e < want; ++e) {
          auto& vec = result.vectors[static_cast<std::size_t>(e)];
          for (std::size_t i = 0; i < k; ++i) {
            axpy(z[i * k + static_cast<std::size_t>(e)], basis[i], vec);
          }
          const double nv = norm(vec);
          if (nv > 0.0) {
            for (auto& x : vec) x /= nv;
          }
        }
        return result;
      }
    }
    if (b < 1e-13) break;  // invariant subspace exhausted
    beta.push_back(b);
    for (auto& x : w) x /= b;
    push_basis(w);
  }

  // max_iter loop exited without returning (shouldn't happen); mark failure.
  result.converged = false;
  return result;
}

LanczosResult rank1_transformed(const LinearOperator& base_op, const LinearOperator& sur_op,
                                std::size_t n, const std::vector<std::vector<double>>& defl,
                                std::size_t usable, const LanczosOptions& options,
                                const std::vector<double>* warm_start) {
  LanczosResult result;
  const int max_iter =
      static_cast<int>(std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_iterations)));

  LanczosScratch local_scratch;
  LanczosScratch& scratch = options.scratch != nullptr ? *options.scratch : local_scratch;
  std::vector<std::vector<double>>& basis = scratch.basis;
  std::vector<double>& coeff = scratch.coeff;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };
  std::vector<double> alpha;
  std::vector<double> beta;

  Rng rng(options.seed);
  std::vector<double>& q = scratch.q;
  q.resize(n);
  bool warm = warm_start != nullptr && warm_start->size() == n;
  if (warm) {
    q = *warm_start;
  } else {
    for (auto& x : q) x = rng.uniform01() - 0.5;
  }
  orthogonalize(defl, defl.size(), q, coeff);
  {
    double nq = norm(q);
    if (warm && !(nq > 1e-12)) {
      for (auto& x : q) x = rng.uniform01() - 0.5;
      orthogonalize(defl, defl.size(), q, coeff);
      nq = norm(q);
    }
    FNE_REQUIRE(nq > 0.0, "degenerate start vector");
    for (auto& x : q) x /= nq;
  }
  push_basis(q);

  std::vector<double>& w = scratch.w;
  w.resize(n);
  for (int j = 0; j < max_iter; ++j) {
    sur_op(basis[basis_count - 1], w);
    const double a = dot(basis[basis_count - 1], w);
    alpha.push_back(a);
    axpy(-a, basis[basis_count - 1], w);
    if (j > 0) axpy(-beta.back(), basis[basis_count - 2], w);
    orthogonalize(defl, defl.size(), w, coeff);
    const double before = norm(w);
    orthogonalize(basis, basis_count, w, coeff);
    double b = norm(w);
    if (b < kDgks * before) {
      orthogonalize(basis, basis_count, w, coeff);
      b = norm(w);
    }
    const bool last = (j + 1 == max_iter) || b < 1e-13;
    if (last || (j + 1) % 10 == 0) {
      std::vector<double> values;
      std::vector<double> z;
      tridiag_eigen(alpha, beta, values, &z);  // Ritz pairs of the SURROGATE
      const std::size_t k = alpha.size();
      const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(k));
      TransformedCandidates cands =
          rayleigh_candidates(base_op, basis, k, z, k, want, options.tolerance, n);
      if (cands.all_converged || last) {
        result.iterations = j + 1;
        result.converged = cands.all_converged;
        result.values = std::move(cands.values);
        result.vectors = std::move(cands.vectors);
        return result;
      }
    }
    if (b < 1e-13) break;
    beta.push_back(b);
    for (auto& x : w) x /= b;
    push_basis(w);
  }

  result.converged = false;
  return result;
}

// ---------------------------------------------------------------------------
// Blocked bodies.  block_plain is the pre-PR-6 solver; the transformed body
// shares its basis build (CGS2+DGKS, T assembly, geometric check cadence)
// but iterates the surrogate, may seed the start block from probe Ritz
// vectors, and replaces the coupling-row residual bound with the direct
// base-operator residual of rayleigh_candidates (the T rows describe the
// surrogate, whose residual scale has no relation to the base tolerance).
// ---------------------------------------------------------------------------

LanczosResult block_plain(const LinearOperator& op, std::size_t n,
                          const std::vector<std::vector<double>>& defl, std::size_t usable,
                          const BlockLanczosOptions& options) {
  LanczosResult result;
  const std::size_t max_basis =
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_basis));
  const std::size_t block = std::min<std::size_t>(
      max_basis,
      static_cast<std::size_t>(options.block_size > 0
                                   ? options.block_size
                                   : std::min(options.num_eigenpairs, 2)));

  LanczosScratch local_scratch;
  LanczosScratch& scratch = options.scratch != nullptr ? *options.scratch : local_scratch;
  std::vector<std::vector<double>>& basis = scratch.basis;
  std::vector<double>& coeff = scratch.coeff;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };

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
  std::vector<double>& q = scratch.q;
  q.resize(n);

  // Seed one deflation- and basis-orthonormal random vector; a few
  // redraws tolerate unlucky draws, then the orthogonal complement is
  // treated as numerically exhausted.
  const auto seed_vector = [&]() -> bool {
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (auto& x : q) x = rng.uniform01() - 0.5;
      orthogonalize(defl, defl.size(), q, coeff);
      const double before = norm(q);
      orthogonalize(basis, basis_count, q, coeff);
      if (norm(q) < kDgks * before) orthogonalize(basis, basis_count, q, coeff);
      orthogonalize(defl, defl.size(), q, coeff);
      const double nq = norm(q);  // post-sweep: the stale norm would
                                  // normalize deflation noise into the basis
      if (nq > 1e-10) {
        for (auto& x : q) x /= nq;
        push_basis(q);
        return true;
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < block; ++i) {
    if (!seed_vector()) break;
  }
  FNE_REQUIRE(basis_count > 0, "degenerate start block");

  std::vector<double>& w = scratch.w;
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

  while (processed < basis_count) {
    const std::size_t j = processed;
    op(basis[j], w);
    orthogonalize(defl, defl.size(), w, coeff);
    const double before = norm(w);
    orthogonalize(basis, basis_count, w, coeff);
    tcol.assign(coeff.begin(), coeff.begin() + static_cast<std::ptrdiff_t>(basis_count));
    if (norm(w) < kDgks * before) orthogonalize(basis, basis_count, w, coeff);
    // Final deflation sweep, then the norm is measured POST-sweep: the
    // basis passes leave an O(ε) deflation residue, and near exhaustion
    // that residue can dominate the true remainder — normalizing by a
    // pre-sweep norm would push a near-zero vector into the basis, which
    // surfaces as ghost copies of the deflated eigenvalues.
    orthogonalize(defl, defl.size(), w, coeff);
    const double bnorm = norm(w);
    for (std::size_t i = 0; i < basis_count; ++i) {
      tmat[i * max_basis + j] = tcol[i];
      tmat[j * max_basis + i] = tcol[i];
    }
    ++processed;
    if (bnorm > 1e-13 && basis_count < max_basis) {
      for (auto& x : w) x /= bnorm;
      tmat[basis_count * max_basis + j] = bnorm;
      tmat[j * max_basis + basis_count] = bnorm;
      push_basis(w);
    } else {
      // This Krylov direction is exhausted (bnorm ~ 0) or the cap is
      // reached; the band narrows and the loop drains the remaining
      // columns.  The un-appended remainder still couples A Q_m out of
      // the basis — charge it to the residual bound below.
      dropped[j] = bnorm;
    }

    const bool no_more = processed == basis_count;
    if (processed < next_check && !no_more) continue;
    next_check = processed + std::max(block, processed / 2);

    const std::size_t m = processed;
    const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(m));
    projected.assign(m * m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) projected[r * m + c] = tmat[r * max_basis + c];
    }
    sym_eigen(projected, m, ritz_values, &ritz_vectors);

    // Residual of Ritz pair (θ_e, y_e): A Q_m y - θ Q_m y lies in
    // span{q_m..q_{basis_count-1}} ∪ {un-appended remainders} (full
    // reorthogonalization leaves nothing else).  The basis part has
    // coefficient (T[i][0..m) · y_e) on q_i — stored above; the dropped
    // remainders are bounded by the triangle inequality.  When the
    // deflated space itself is exhausted both parts vanish and the Ritz
    // values are exact, so the zero residual is the truth.
    bool all_converged = true;
    for (int e = 0; e < want && all_converged; ++e) {
      double r2 = 0.0;
      for (std::size_t i = m; i < basis_count; ++i) {
        double s = 0.0;
        for (std::size_t c = 0; c < m; ++c) {
          s += tmat[i * max_basis + c] * ritz_vectors[c * m + static_cast<std::size_t>(e)];
        }
        r2 += s * s;
      }
      double resid = std::sqrt(r2);
      for (std::size_t c = 0; c < m; ++c) {
        if (dropped[c] > 0.0) {
          resid += dropped[c] * std::fabs(ritz_vectors[c * m + static_cast<std::size_t>(e)]);
        }
      }
      if (resid > options.tolerance) all_converged = false;
    }
    if (!all_converged && !no_more) continue;

    result.iterations = static_cast<int>(m);
    result.converged = all_converged;
    result.values.assign(ritz_values.begin(), ritz_values.begin() + want);
    result.vectors.assign(static_cast<std::size_t>(want), std::vector<double>(n, 0.0));
    for (int e = 0; e < want; ++e) {
      auto& vec = result.vectors[static_cast<std::size_t>(e)];
      for (std::size_t i = 0; i < m; ++i) {
        axpy(ritz_vectors[i * m + static_cast<std::size_t>(e)], basis[i], vec);
      }
      const double nv = norm(vec);
      if (nv > 0.0) {
        for (auto& x : vec) x /= nv;
      }
    }
    return result;
  }

  // Unreachable: the drain loop always returns at no_more.
  result.converged = false;
  return result;
}

LanczosResult block_transformed(const LinearOperator& base_op, const LinearOperator& sur_op,
                                std::size_t n, const std::vector<std::vector<double>>& defl,
                                std::size_t usable, const BlockLanczosOptions& options,
                                const std::vector<std::vector<double>>* warm_starts) {
  LanczosResult result;
  const std::size_t max_basis =
      std::min<std::size_t>(usable, static_cast<std::size_t>(options.max_basis));
  const std::size_t block = std::min<std::size_t>(
      max_basis,
      static_cast<std::size_t>(options.block_size > 0
                                   ? options.block_size
                                   : std::min(options.num_eigenpairs, 2)));

  LanczosScratch local_scratch;
  LanczosScratch& scratch = options.scratch != nullptr ? *options.scratch : local_scratch;
  std::vector<std::vector<double>>& basis = scratch.basis;
  std::vector<double>& coeff = scratch.coeff;
  std::size_t basis_count = 0;
  auto push_basis = [&](const std::vector<double>& v) {
    if (basis.size() <= basis_count) basis.emplace_back();
    basis[basis_count] = v;
    ++basis_count;
  };

  std::vector<double> tmat(max_basis * max_basis, 0.0);

  Rng rng(options.seed);
  std::vector<double>& q = scratch.q;
  q.resize(n);

  // Orthonormalize the current q against deflation and the basis so far;
  // push it if anything survives.  Shared by warm and random seeding.
  const auto try_push_seed = [&]() -> bool {
    orthogonalize(defl, defl.size(), q, coeff);
    const double before = norm(q);
    orthogonalize(basis, basis_count, q, coeff);
    if (norm(q) < kDgks * before) orthogonalize(basis, basis_count, q, coeff);
    orthogonalize(defl, defl.size(), q, coeff);
    const double nq = norm(q);
    if (!(nq > 1e-10)) return false;
    for (auto& x : q) x /= nq;
    push_basis(q);
    return true;
  };
  const auto seed_vector = [&]() -> bool {
    for (int attempt = 0; attempt < 4; ++attempt) {
      for (auto& x : q) x = rng.uniform01() - 0.5;
      if (try_push_seed()) return true;
    }
    return false;
  };
  // Probe Ritz vectors already approximate the wanted invariant subspace —
  // seeding the block with them lets the surrogate refine instead of
  // rediscovering.  Degenerate warm vectors are simply skipped.
  if (warm_starts != nullptr) {
    for (const auto& ws : *warm_starts) {
      if (basis_count >= block) break;
      if (ws.size() != n) continue;
      q = ws;
      try_push_seed();
    }
  }
  for (std::size_t i = basis_count; i < block; ++i) {
    if (!seed_vector()) break;
  }
  FNE_REQUIRE(basis_count > 0, "degenerate start block");

  std::vector<double>& w = scratch.w;
  w.resize(n);
  std::vector<double> tcol;
  std::vector<double> ritz_values;
  std::vector<double> ritz_vectors;
  std::vector<double> projected;

  std::size_t processed = 0;
  std::size_t next_check = block;

  while (processed < basis_count) {
    const std::size_t j = processed;
    sur_op(basis[j], w);
    orthogonalize(defl, defl.size(), w, coeff);
    const double before = norm(w);
    orthogonalize(basis, basis_count, w, coeff);
    tcol.assign(coeff.begin(), coeff.begin() + static_cast<std::ptrdiff_t>(basis_count));
    if (norm(w) < kDgks * before) orthogonalize(basis, basis_count, w, coeff);
    orthogonalize(defl, defl.size(), w, coeff);
    const double bnorm = norm(w);
    for (std::size_t i = 0; i < basis_count; ++i) {
      tmat[i * max_basis + j] = tcol[i];
      tmat[j * max_basis + i] = tcol[i];
    }
    ++processed;
    if (bnorm > 1e-13 && basis_count < max_basis) {
      for (auto& x : w) x /= bnorm;
      tmat[basis_count * max_basis + j] = bnorm;
      tmat[j * max_basis + basis_count] = bnorm;
      push_basis(w);
    }

    const bool no_more = processed == basis_count;
    if (processed < next_check && !no_more) continue;
    next_check = processed + std::max(block, processed / 2);

    const std::size_t m = processed;
    const int want = std::min<int>(options.num_eigenpairs, static_cast<int>(m));
    projected.assign(m * m, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t c = 0; c < m; ++c) projected[r * m + c] = tmat[r * max_basis + c];
    }
    sym_eigen(projected, m, ritz_values, &ritz_vectors);

    TransformedCandidates cands =
        rayleigh_candidates(base_op, basis, m, ritz_vectors, m, want, options.tolerance, n);
    if (!cands.all_converged && !no_more) continue;

    result.iterations = static_cast<int>(m);
    result.converged = cands.all_converged;
    result.values = std::move(cands.values);
    result.vectors = std::move(cands.vectors);
    return result;
  }

  result.converged = false;
  return result;
}

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& op, std::size_t n,
                               const std::vector<std::vector<double>>& deflation,
                               const LanczosOptions& options) {
  FNE_REQUIRE(n >= 1, "empty operator");
  FNE_REQUIRE(options.num_eigenpairs >= 1, "need at least one eigenpair");

  std::vector<std::vector<double>> defl = normalize_deflation(deflation);
  const std::size_t usable =
      n > defl.size() ? n - defl.size() : 0;  // dimension of the deflated space
  if (usable == 0) {
    LanczosResult result;
    result.converged = true;
    return result;
  }

  const SpectralMode mode = options.accel.mode;
  if (mode == SpectralMode::kPlain) return rank1_plain(op, n, defl, usable, options);

  if (mode == SpectralMode::kShiftInvert) {
    ShiftInvertSurrogate surrogate(op, defl, options.accel.shift, options.accel.cg_tolerance,
                                   options.accel.cg_max_iterations);
    const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                            std::vector<double>& y) { surrogate.apply(x, y); };
    return rank1_transformed(op, sur, n, defl, usable, options, options.initial);
  }

  // kFiltered: probe with the plain solver first.  Cheap spectra converge
  // inside the probe budget and return directly; otherwise the probe's
  // Ritz values place the filter cut and its vector warm-starts the
  // accelerated solve.
  FNE_REQUIRE(std::isfinite(options.accel.op_upper_bound),
              "filtered mode needs a finite accel.op_upper_bound (e.g. gershgorin_upper_bound)");
  LanczosOptions probe_opts = options;
  probe_opts.max_iterations = std::min(options.max_iterations, kFilterProbeIterations);
  LanczosResult probe = rank1_plain(op, n, defl, usable, probe_opts);
  if (probe.converged) return probe;

  const FilterPlan plan = plan_filter(probe.values, options.num_eigenpairs,
                                      options.accel.filter_degree, options.accel.op_upper_bound);
  if (!plan.usable) return rank1_plain(op, n, defl, usable, options);

  ChebyshevSurrogate surrogate(op, plan);
  const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                          std::vector<double>& y) { surrogate.apply(x, y); };
  const std::vector<double>* warm =
      !probe.vectors.empty() ? &probe.vectors.front() : options.initial;
  LanczosResult result = rank1_transformed(op, sur, n, defl, usable, options, warm);
  result.iterations += probe.iterations;
  return result;
}

LanczosResult lanczos_smallest_block(const LinearOperator& op, std::size_t n,
                                     const std::vector<std::vector<double>>& deflation,
                                     const BlockLanczosOptions& options) {
  FNE_REQUIRE(n >= 1, "empty operator");
  FNE_REQUIRE(options.num_eigenpairs >= 1, "need at least one eigenpair");
  FNE_REQUIRE(options.max_basis >= options.num_eigenpairs,
              "max_basis must cover the wanted eigenpairs");

  std::vector<std::vector<double>> defl = normalize_deflation(deflation);
  const std::size_t usable = n > defl.size() ? n - defl.size() : 0;
  if (usable == 0) {
    LanczosResult result;
    result.converged = true;
    return result;
  }

  const SpectralMode mode = options.accel.mode;
  if (mode == SpectralMode::kPlain) return block_plain(op, n, defl, usable, options);

  if (mode == SpectralMode::kShiftInvert) {
    ShiftInvertSurrogate surrogate(op, defl, options.accel.shift, options.accel.cg_tolerance,
                                   options.accel.cg_max_iterations);
    const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                            std::vector<double>& y) { surrogate.apply(x, y); };
    return block_transformed(op, sur, n, defl, usable, options, nullptr);
  }

  FNE_REQUIRE(std::isfinite(options.accel.op_upper_bound),
              "filtered mode needs a finite accel.op_upper_bound (e.g. gershgorin_upper_bound)");
  BlockLanczosOptions probe_opts = options;
  probe_opts.max_basis = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(options.max_basis),
      std::max<std::size_t>(static_cast<std::size_t>(kFilterProbeIterations),
                            static_cast<std::size_t>(options.num_eigenpairs))));
  LanczosResult probe = block_plain(op, n, defl, usable, probe_opts);
  if (probe.converged) return probe;

  const FilterPlan plan = plan_filter(probe.values, options.num_eigenpairs,
                                      options.accel.filter_degree, options.accel.op_upper_bound);
  if (!plan.usable) return block_plain(op, n, defl, usable, options);

  ChebyshevSurrogate surrogate(op, plan);
  const LinearOperator sur = [&surrogate](const std::vector<double>& x,
                                          std::vector<double>& y) { surrogate.apply(x, y); };
  LanczosResult result =
      block_transformed(op, sur, n, defl, usable, options, &probe.vectors);
  result.iterations += probe.iterations;
  return result;
}

}  // namespace fne
