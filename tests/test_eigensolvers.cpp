#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "spectral/tridiag.hpp"
#include "topology/classic.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

std::vector<double> laplacian_dense(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> a(n * n, 0.0);
  for (vid v = 0; v < n; ++v) a[v * n + v] = g.degree(v);
  for (const Edge& e : g.edges()) {
    a[e.u * n + e.v] = -1.0;
    a[e.v * n + e.u] = -1.0;
  }
  return a;
}

TEST(Tridiag, DiagonalMatrixIsItsOwnSpectrum) {
  std::vector<double> values;
  tridiag_eigen({3.0, 1.0, 2.0}, {0.0, 0.0}, values, nullptr);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 2.0, 1e-12);
  EXPECT_NEAR(values[2], 3.0, 1e-12);
}

TEST(Tridiag, TwoByTwoClosedForm) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  std::vector<double> values, vectors;
  tridiag_eigen({2.0, 2.0}, {1.0}, values, &vectors);
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
  // Eigenvector of λ=1 is (1, -1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(vectors[0 * 2 + 0]), 1.0 / std::sqrt(2.0), 1e-10);
}

TEST(Tridiag, PathLaplacianKnownSpectrum) {
  // Laplacian of the path P_n is tridiagonal; eigenvalues are
  // 2 - 2cos(pi k / n), k = 0..n-1.
  const int n = 8;
  std::vector<double> diag(n, 2.0);
  diag.front() = diag.back() = 1.0;
  std::vector<double> off(n - 1, -1.0);
  std::vector<double> values;
  tridiag_eigen(diag, off, values, nullptr);
  for (int k = 0; k < n; ++k) {
    const double expected = 2.0 - 2.0 * std::cos(std::numbers::pi * k / n);
    EXPECT_NEAR(values[k], expected, 1e-10) << "k=" << k;
  }
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
  const std::vector<double> diag{1.0, -2.0, 0.5, 3.0};
  const std::vector<double> off{0.7, -1.1, 0.3};
  std::vector<double> values, z;
  tridiag_eigen(diag, off, values, &z);
  const std::size_t n = 4;
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = diag[i] * z[i * n + j];
      if (i > 0) av += off[i - 1] * z[(i - 1) * n + j];
      if (i + 1 < n) av += off[i] * z[(i + 1) * n + j];
      EXPECT_NEAR(av, values[j] * z[i * n + j], 1e-9);
    }
  }
}

TEST(Jacobi, MatchesTridiagOnRandomSymmetric) {
  Rng rng(5);
  const std::size_t n = 10;
  std::vector<double> diag(n), off(n - 1);
  for (auto& d : diag) d = rng.uniform01() * 4 - 2;
  for (auto& o : off) o = rng.uniform01() * 2 - 1;
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] = diag[i];
  for (std::size_t i = 0; i + 1 < n; ++i) {
    a[i * n + i + 1] = off[i];
    a[(i + 1) * n + i] = off[i];
  }
  std::vector<double> v1, v2;
  tridiag_eigen(diag, off, v1, nullptr);
  jacobi_eigen(a, n, v2, nullptr);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(v1[i], v2[i], 1e-9);
}

TEST(Jacobi, EigenvectorsDiagonalize) {
  Rng rng(9);
  const std::size_t n = 6;
  std::vector<double> a(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double x = rng.uniform01() * 2 - 1;
      a[i * n + j] = x;
      a[j * n + i] = x;
    }
  }
  std::vector<double> values, z;
  jacobi_eigen(a, n, values, &z);
  // Check A z_j = lambda_j z_j.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double av = 0;
      for (std::size_t k = 0; k < n; ++k) av += a[i * n + k] * z[k * n + j];
      EXPECT_NEAR(av, values[j] * z[i * n + j], 1e-8);
    }
  }
}

TEST(Lanczos, PathLaplacianLambda2) {
  const vid n = 24;
  const Graph g = path_graph(n);
  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl);
  ASSERT_TRUE(res.converged);
  const double expected = 2.0 - 2.0 * std::cos(std::numbers::pi / n);
  EXPECT_NEAR(res.values[0], expected, 1e-7);
}

TEST(Lanczos, MatchesJacobiOnRandomGraphLaplacian) {
  const Graph g = Graph::from_edges(
      12, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}, {6, 7}, {7, 8},
           {8, 9}, {9, 10}, {10, 11}, {11, 6}, {3, 9}, {2, 8}});
  const vid n = g.num_vertices();
  std::vector<double> dense_values;
  jacobi_eigen(laplacian_dense(g), n, dense_values, nullptr);

  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  LanczosOptions opts;
  opts.num_eigenpairs = 2;
  opts.block_size = 1;  // the rank-1 body at k = 2
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl,
      opts);
  ASSERT_TRUE(res.converged);
  // Deflated smallest = λ2 of the Laplacian (dense_values[1]).
  EXPECT_NEAR(res.values[0], dense_values[1], 1e-7);
  EXPECT_NEAR(res.values[1], dense_values[2], 1e-6);
  // A basis cap below the wanted pairs is refused at every width.
  opts.max_iterations = 1;
  for (const int width : {1, 2}) {
    opts.block_size = width;
    EXPECT_THROW((void)lanczos_smallest(
                     [&](const std::vector<double>& x, std::vector<double>& y) {
                       lap.apply(x, y);
                     },
                     n, defl, opts),
                 PreconditionError)
        << "width " << width;
  }
}

TEST(Lanczos, RitzVectorIsEigenvector) {
  const Graph g = cycle_graph(16);
  const vid n = 16;
  MaskedLaplacian lap(g, VertexSet::full(n));
  const std::vector<std::vector<double>> defl{std::vector<double>(n, 1.0)};
  const auto res = lanczos_smallest(
      [&](const std::vector<double>& x, std::vector<double>& y) { lap.apply(x, y); }, n, defl);
  ASSERT_TRUE(res.converged);
  std::vector<double> lx(n);
  lap.apply(res.vectors[0], lx);
  for (vid i = 0; i < n; ++i) {
    EXPECT_NEAR(lx[i], res.values[0] * res.vectors[0][i], 1e-6);
  }
}

TEST(MaskedLaplacian, RespectsAliveMask) {
  const Graph g = path_graph(5);
  VertexSet alive = VertexSet::full(5);
  alive.reset(2);  // two components {0,1}, {3,4}
  MaskedLaplacian lap(g, alive);
  EXPECT_EQ(lap.dim(), 4U);
  // x = indicator of subgraph vertex 0 (original 0): L x = deg*x - A x.
  std::vector<double> x(4, 0.0), y(4, 0.0);
  x[0] = 1.0;
  lap.apply(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);   // degree of vertex 0 within mask
  EXPECT_DOUBLE_EQ(y[1], -1.0);  // neighbor 1
  EXPECT_DOUBLE_EQ(y[2], 0.0);   // vertex 3 unaffected
}

}  // namespace
}  // namespace fne
