// Blocked (rank-k) Lanczos contracts (DESIGN.md §9): eigenvalue parity
// with k repeated deflated rank-1 solves and with the dense Jacobi
// oracle, multiplicity resolution, the deflation-ghost regression, bit
// determinism across OMP thread counts on both sides of
// kSpectralParallelDim, and SubCsr cull-sequence parity.
#include <gtest/gtest.h>

#include <cmath>

#include "core/traversal.hpp"
#include "faults/fault_model.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "spectral/tridiag.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {
namespace {

[[nodiscard]] LinearOperator as_operator(const SubCsrLaplacian& lap) {
  return [&lap](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); };
}

[[nodiscard]] std::vector<std::vector<double>> ones_deflation(std::size_t dim) {
  return {std::vector<double>(dim, 1.0)};
}

/// Dense Laplacian of the masked subgraph, for the Jacobi/sym_eigen
/// oracles (small graphs only).
[[nodiscard]] std::vector<double> dense_laplacian(const SubCsrLaplacian& lap) {
  const std::size_t n = lap.dim();
  std::vector<double> a(n * n, 0.0);
  std::vector<double> x(n, 0.0);
  std::vector<double> y(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    x.assign(n, 0.0);
    x[j] = 1.0;
    lap.apply(x, y);
    for (std::size_t i = 0; i < n; ++i) a[i * n + j] = y[i];
  }
  return a;
}

TEST(SymEigen, MatchesTheJacobiOracle) {
  const Mesh mesh = Mesh::cube(5, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);
  const std::vector<double> a = dense_laplacian(lap);
  const std::size_t n = lap.dim();

  std::vector<double> jac_values;
  std::vector<double> jac_vectors;
  jacobi_eigen(a, n, jac_values, &jac_vectors);
  std::vector<double> sym_values;
  std::vector<double> sym_vectors;
  sym_eigen(a, n, sym_values, &sym_vectors);

  ASSERT_EQ(sym_values.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(sym_values[i], jac_values[i], 1e-10);
  // Eigenvectors: check they diagonalize (A v = λ v), not sign/order.
  for (std::size_t e = 0; e < n; ++e) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (std::size_t j = 0; j < n; ++j) av += a[i * n + j] * sym_vectors[j * n + e];
      EXPECT_NEAR(av, sym_values[e] * sym_vectors[i * n + e], 1e-9);
    }
  }
}

TEST(BlockedLanczos, MatchesTheDenseOracleIncludingMultiplicity) {
  // The square mesh's λ₂ is doubly degenerate — the case a single Krylov
  // chain cannot resolve in exact arithmetic and the blocked kernel must.
  const Mesh mesh = Mesh::cube(8, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);
  std::vector<double> oracle_values;
  jacobi_eigen(dense_laplacian(lap), lap.dim(), oracle_values, nullptr);
  ASSERT_NEAR(oracle_values[0], 0.0, 1e-10);  // kernel (connected graph)
  ASSERT_NEAR(oracle_values[1], oracle_values[2], 1e-10) << "λ₂ must be degenerate";

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-9;
  const LanczosResult result =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.values.size(), 4u);
  // Deflating ones removes the kernel: blocked values are oracle[1..4].
  for (int e = 0; e < 4; ++e) {
    EXPECT_NEAR(result.values[static_cast<std::size_t>(e)],
                oracle_values[static_cast<std::size_t>(e) + 1], 1e-7);
  }
}

TEST(BlockedLanczos, RankKMatchesRepeatedRankOneSolves) {
  const Mesh mesh = Mesh::cube(16, 2);
  const Graph& g = mesh.graph();
  const VertexSet alive = largest_component(g, random_node_faults(g, 0.25, 99));
  SubCsr sub;
  sub.build(g, alive);
  const SubCsrLaplacian lap(sub);
  const std::size_t dim = lap.dim();
  ASSERT_GE(dim, 32u);

  // k repeated rank-1 solves with progressive deflation.
  std::vector<std::vector<double>> defl = ones_deflation(dim);
  std::vector<double> seq_values;
  for (int e = 0; e < 3; ++e) {
    LanczosOptions opts;
    opts.tolerance = 1e-9;
    opts.max_iterations = 400;
    opts.seed = 17 + static_cast<std::uint64_t>(e);
    const LanczosResult r = lanczos_smallest(as_operator(lap), dim, defl, opts);
    ASSERT_TRUE(r.converged);
    seq_values.push_back(r.values.at(0));
    defl.push_back(r.vectors.at(0));
  }

  LanczosOptions opts;
  opts.num_eigenpairs = 3;
  opts.tolerance = 1e-9;
  opts.max_iterations = 400;
  opts.seed = 17;
  const LanczosResult blocked =
      lanczos_smallest(as_operator(lap), dim, ones_deflation(dim), opts);
  ASSERT_TRUE(blocked.converged);
  for (int e = 0; e < 3; ++e) {
    EXPECT_NEAR(blocked.values[static_cast<std::size_t>(e)],
                seq_values[static_cast<std::size_t>(e)], 1e-7);
  }
  // Ritz vectors are genuine eigenvectors: residual check through the op.
  std::vector<double> av(dim);
  for (int e = 0; e < 3; ++e) {
    const auto& v = blocked.vectors[static_cast<std::size_t>(e)];
    lap.apply(v, av);
    double r2 = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      const double d = av[i] - blocked.values[static_cast<std::size_t>(e)] * v[i];
      r2 += d * d;
    }
    EXPECT_LE(std::sqrt(r2), 1e-6);
  }
}

TEST(BlockedLanczos, DeflationGhostRegression) {
  // Long solves used to grow a ghost copy of the DEFLATED eigenvalue
  // (ones/kernel, λ = 0): one Gram–Schmidt pass against the deflation
  // left an ε-residue that normalization amplified whenever the remainder
  // norm was small.  On the fault-free 20x20 mesh the four smallest
  // nontrivial eigenvalues are known in closed form — none of them is 0.
  const Mesh mesh = Mesh::cube(20, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-8;
  opts.max_iterations = 500;
  const LanczosResult result =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(result.converged);
  // Path eigenvalues 2 - 2cos(πk/20); mesh eigenvalues are pairwise sums.
  const double mu = 2.0 - 2.0 * std::cos(M_PI / 20.0);
  EXPECT_NEAR(result.values[0], mu, 1e-7);
  EXPECT_NEAR(result.values[1], mu, 1e-7) << "λ₂ is degenerate on the square mesh";
  EXPECT_NEAR(result.values[2], 2.0 * mu, 1e-7);
  EXPECT_GT(result.values[0], 1e-3) << "a value near 0 is the deflation ghost";
}

TEST(BlockedLanczos, DeterministicBelowAndAboveParallelThreshold) {
  // Same contract as the k = 1 kernel (test_subcsr.cpp): a solve is a
  // pure function of its inputs — identical bits for every OMP thread
  // count, on both sides of kSpectralParallelDim.
  for (const std::size_t n : {std::size_t{512}, kSpectralParallelDim + 512}) {
    const auto op = [n](const std::vector<double>& x, std::vector<double>& y) {
      for (std::size_t i = 0; i < n; ++i) {
        const double d = i < 4 ? 1.0 + 0.5 * static_cast<double>(i)
                               : 4.0 + static_cast<double>(i % 5);
        y[i] = d * x[i];
      }
    };
    LanczosOptions opts;
    opts.num_eigenpairs = 4;
    opts.max_iterations = 120;
    opts.tolerance = 1e-9;
    opts.seed = 11;

    const auto solve = [&] { return lanczos_smallest(op, n, {}, opts); };
    const LanczosResult first = solve();

#ifdef _OPENMP
    const int saved = omp_get_max_threads();
    for (const int threads : {1, 2, 4}) {
      omp_set_num_threads(threads);
      const LanczosResult again = solve();
      SCOPED_TRACE(threads);
      ASSERT_EQ(first.iterations, again.iterations);
      ASSERT_EQ(first.values, again.values);
      ASSERT_EQ(first.vectors, again.vectors);
    }
    omp_set_num_threads(saved);
#else
    const LanczosResult again = solve();
    ASSERT_EQ(first.values, again.values);
    ASSERT_EQ(first.vectors, again.vectors);
#endif
    ASSERT_TRUE(first.converged);
    EXPECT_NEAR(first.values[0], 1.0, 1e-7);
    EXPECT_NEAR(first.values[3], 2.5, 1e-7);
  }
}

TEST(BlockedLanczosSlow, CullSequenceParityOnShrunkSubCsr) {
  // The engine shrinks its SubCsr incrementally (remove()); a blocked
  // solve over the shrunk operator must be bit-identical to one over a
  // freshly built operator for the same alive mask.
  const Mesh mesh = Mesh::cube(14, 2);
  const Graph& g = mesh.graph();
  VertexSet alive = random_node_faults(g, 0.15, 5);

  SubCsr incremental;
  incremental.build(g, alive);
  Rng rng(123);
  for (int round = 0; round < 3; ++round) {
    // Cull a handful of currently alive vertices.
    VertexSet culled(g.num_vertices());
    int budget = 6;
    alive.for_each([&](vid v) {
      if (budget > 0 && rng.uniform(4) == 0) {
        culled.set(v);
        --budget;
      }
    });
    if (culled.empty()) continue;
    incremental.remove(culled);
    alive = alive - culled;

    SubCsr fresh;
    fresh.build(g, alive);
    const VertexSet comp = largest_component(g, alive);
    // Solve over the largest component via each operator's compact space:
    // both must agree bit for bit when the structures match.
    ASSERT_EQ(incremental.verts, fresh.verts);
    ASSERT_EQ(incremental.adj, fresh.adj);
    ASSERT_EQ(incremental.deg, fresh.deg);

    const SubCsrLaplacian a(incremental);
    const SubCsrLaplacian b(fresh);
    LanczosOptions opts;
    opts.num_eigenpairs = 2;
    opts.max_iterations = 200;
    opts.tolerance = 1e-7;
    opts.seed = 7 + static_cast<std::uint64_t>(round);
    const LanczosResult ra = lanczos_smallest(as_operator(a), a.dim(), {}, opts);
    const LanczosResult rb = lanczos_smallest(as_operator(b), b.dim(), {}, opts);
    ASSERT_EQ(ra.iterations, rb.iterations);
    ASSERT_EQ(ra.values, rb.values);
    ASSERT_EQ(ra.vectors, rb.vectors);
    (void)comp;
  }
}

}  // namespace
}  // namespace fne
