// Spectral acceleration modes (DESIGN.md §10): Chebyshev-filtered and
// shift-invert solves must agree with the plain solver at matched
// tolerance (eigenvalues come from Rayleigh quotients against the
// original operator in every mode), the default Fiedler solve must be
// the filtered one at any dimension, the Gershgorin bound must dominate
// the spectrum, and every mode must stay bit-identical for any OMP
// thread count on both sides of kSpectralParallelDim.  A pinned matrix
// fixes iterations, convergence and eigenvalues of every driver path of
// the rank-1 and block bodies.  The Slow suite
// adds the clustered-spectrum regression the filter exists for: the
// side-96 mesh, where the plain blocked solver cannot converge within
// a 250-vector basis and the filtered solver must.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "api/runner.hpp"
#include "core/traversal.hpp"
#include "faults/fault_model.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/require.hpp"
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

[[nodiscard]] const char* mode_name(SpectralMode mode) {
  switch (mode) {
    case SpectralMode::kPlain: return "plain";
    case SpectralMode::kFiltered: return "filtered";
    case SpectralMode::kShiftInvert: return "shift_invert";
  }
  return "?";
}

[[nodiscard]] SpectralAccel accel_for(SpectralMode mode, const SubCsr& sub) {
  SpectralAccel accel;
  accel.mode = mode;
  accel.op_upper_bound = gershgorin_upper_bound(sub);
  return accel;
}

/// Path-graph eigenvalue 2 − 2cos(πk/side); mesh eigenvalues are
/// pairwise sums of these.
[[nodiscard]] double path_mu(int k, int side) {
  return 2.0 - 2.0 * std::cos(M_PI * static_cast<double>(k) / static_cast<double>(side));
}

/// The largest component of the certify benchmark's mesh-64² cell
/// (p = 0.05, scenario seed 11): the solve the filtered default exists
/// to speed up.  The cull loop runs zero iterations, so the runner only
/// reproduces the cell's fault mask.
struct CertifyComponent {
  Graph graph;
  VertexSet comp;
};

[[nodiscard]] CertifyComponent certify_component() {
  Scenario cell;
  cell.topology = {"mesh", Params{{"side", "64"}, {"dims", "2"}}};
  cell.fault = {"random", Params{{"p", "0.05"}}};
  cell.prune.alpha = 0.125;
  cell.prune.max_iterations = 0;
  cell.seed = 11;
  ScenarioRunner runner(cell);
  VertexSet comp = largest_component(runner.graph(), runner.run_isolated(cell.fault, 0).alive);
  return {runner.graph(), std::move(comp)};
}

TEST(SpectralModes, DefaultFiedlerSolveIsFilteredAtAnySize) {
  EXPECT_EQ(FiedlerOptions{}.accel.mode, SpectralMode::kFiltered);
  // No size threshold: at n = 2, 10 and 8192 the default solve (whose
  // NaN bound fiedler_vector fills from Gershgorin) is bit-identical to
  // an explicit filtered solve with that bound.
  for (const Mesh& mesh : {Mesh({2}), Mesh({2, 5}), Mesh({128, 64})}) {
    const VertexSet all = VertexSet::full(mesh.num_vertices());
    SubCsr sub;
    sub.build(mesh.graph(), all);
    SCOPED_TRACE(sub.dim());
    FiedlerOptions defaults;
    defaults.max_iterations = 60;
    FiedlerOptions filtered = defaults;
    filtered.accel = accel_for(SpectralMode::kFiltered, sub);
    const FiedlerResult a = fiedler_vector(mesh.graph(), all, defaults);
    const FiedlerResult b = fiedler_vector(mesh.graph(), all, filtered);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.lambda2, b.lambda2);
    EXPECT_EQ(a.vector, b.vector);
  }
}

TEST(SpectralModes, DefaultFiedlerConvergesOnCertifyCell) {
  const CertifyComponent cell = certify_component();
  ASSERT_GT(cell.comp.count(), 3500u);
  const FiedlerResult fast = fiedler_vector(cell.graph, cell.comp, FiedlerOptions{});
  EXPECT_TRUE(fast.converged) << "the filtered default must converge within the default cap";
}

TEST(SpectralModes, GershgorinBoundDominatesTheSpectrum) {
  for (const auto& g :
       {Mesh::cube(6, 2).graph(), random_regular(80, 4, 3)}) {
    SubCsr sub;
    sub.build(g, VertexSet::full(g.num_vertices()));
    const SubCsrLaplacian lap(sub);
    std::vector<double> values;
    jacobi_eigen(dense_laplacian(lap), lap.dim(), values, nullptr);
    const double bound = gershgorin_upper_bound(sub);
    EXPECT_LE(values.back(), bound + 1e-12);
    EXPECT_GT(bound, 0.0);
  }
}

TEST(SpectralModes, FilteredMatchesPlainOnMesh) {
  const Mesh mesh = Mesh::cube(20, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);
  const double mu = path_mu(1, 20);

  // Rank-1: λ₂ from the filtered solve matches the closed form and the
  // plain solve at matched tolerance.
  LanczosOptions opts;
  opts.num_eigenpairs = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 400;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(filtered.converged);
  EXPECT_NEAR(filtered.values[0], mu, 1e-6);
  EXPECT_NEAR(filtered.values[0], plain.values[0], 1e-6);

  // Blocked k = 4: values match the plain blocked solve pairwise.
  LanczosOptions bopts;
  bopts.num_eigenpairs = 4;
  bopts.tolerance = 1e-8;
  bopts.max_iterations = 500;
  const LanczosResult bplain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), bopts);
  bopts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult bfilt =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), bopts);
  ASSERT_TRUE(bplain.converged);
  ASSERT_TRUE(bfilt.converged);
  ASSERT_EQ(bplain.values.size(), bfilt.values.size());
  for (std::size_t e = 0; e < bplain.values.size(); ++e) {
    EXPECT_NEAR(bfilt.values[e], bplain.values[e], 1e-6) << "pair " << e;
  }
}

TEST(SpectralModes, ShiftInvertMatchesPlainOnMesh) {
  const Mesh mesh = Mesh::cube(20, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 1;
  opts.tolerance = 1e-8;
  opts.max_iterations = 400;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  opts.accel.mode = SpectralMode::kShiftInvert;  // σ = 0: kernel is deflated
  const LanczosResult si =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(si.converged);
  EXPECT_NEAR(si.values[0], plain.values[0], 1e-6);
  EXPECT_LT(si.iterations, plain.iterations)
      << "shift-invert exists to converge in far fewer (outer) iterations";

  LanczosOptions bopts;
  bopts.num_eigenpairs = 4;
  bopts.tolerance = 1e-8;
  bopts.max_iterations = 500;
  const LanczosResult bplain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), bopts);
  bopts.accel.mode = SpectralMode::kShiftInvert;
  const LanczosResult bsi =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), bopts);
  ASSERT_TRUE(bplain.converged);
  ASSERT_TRUE(bsi.converged);
  ASSERT_EQ(bplain.values.size(), bsi.values.size());
  for (std::size_t e = 0; e < bplain.values.size(); ++e) {
    EXPECT_NEAR(bsi.values[e], bplain.values[e], 1e-6) << "pair " << e;
  }
}

TEST(SpectralModes, FilteredMatchesPlainOnRandomRegular) {
  const Graph g = random_regular(600, 4, 17);
  SubCsr sub;
  sub.build(g, VertexSet::full(g.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-8;
  opts.max_iterations = 400;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(filtered.converged);
  ASSERT_EQ(plain.values.size(), filtered.values.size());
  for (std::size_t e = 0; e < plain.values.size(); ++e) {
    EXPECT_NEAR(filtered.values[e], plain.values[e], 1e-6) << "pair " << e;
  }
}

TEST(SpectralModes, FilteredParityOnCullSequence) {
  // The engine pairs accelerated solves with an incrementally shrunk
  // SubCsr; filtered results over the shrunk operator must match plain
  // results for the same mask at every step of a cull sequence.
  const Mesh mesh = Mesh::cube(14, 2);
  const Graph& g = mesh.graph();
  VertexSet alive = random_node_faults(g, 0.15, 5);
  alive = largest_component(g, alive);

  SubCsr incremental;
  incremental.build(g, alive);
  Rng rng(123);
  for (int round = 0; round < 3; ++round) {
    VertexSet culled(g.num_vertices());
    int budget = 6;
    alive.for_each([&](vid v) {
      if (budget > 0 && rng.uniform(4) == 0) {
        culled.set(v);
        --budget;
      }
    });
    if (culled.count() == 0) continue;
    culled.for_each([&](vid v) { alive.reset(v); });
    incremental.remove(culled);
    const VertexSet comp = largest_component(g, alive);
    if (comp.count() != alive.count()) {  // the solver needs a connected mask
      incremental.remove(alive - comp);
      alive = comp;
    }

    const SubCsrLaplacian lap(incremental);
    LanczosOptions opts;
    opts.num_eigenpairs = 2;
    opts.tolerance = 1e-7;
    opts.max_iterations = 300;
    const LanczosResult plain =
        lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
    opts.accel = accel_for(SpectralMode::kFiltered, incremental);
    const LanczosResult filtered =
        lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
    SCOPED_TRACE(round);
    ASSERT_TRUE(plain.converged);
    ASSERT_TRUE(filtered.converged);
    for (std::size_t e = 0; e < plain.values.size(); ++e) {
      EXPECT_NEAR(filtered.values[e], plain.values[e], 1e-5) << "pair " << e;
    }
  }
}

/// Every driver path of the two Krylov bodies — plain, filtered and
/// shift-invert; rank 1 cold, warm, degenerate-warm and capped; block at
/// widths 2 and 3 and capped; and the unshifted -L top solve of the
/// expander certificate — on two small graphs.
struct PinnedSolve {
  std::string label;
  int iterations;
  bool converged;
  std::vector<double> values;
};

[[nodiscard]] std::vector<PinnedSolve> run_pinned_solves() {
  std::vector<PinnedSolve> out;
  const auto record = [&out](std::string label, const LanczosResult& r) {
    out.push_back({std::move(label), r.iterations, r.converged, r.values});
  };
  const std::pair<const char*, Graph> graphs[] = {{"mesh20", Mesh::cube(20, 2).graph()},
                                                  {"rr300", random_regular(300, 4, 5)}};
  for (const auto& [name, g] : graphs) {
    SubCsr sub;
    sub.build(g, VertexSet::full(g.num_vertices()));
    const SubCsrLaplacian lap(sub);
    const std::size_t n = lap.dim();
    const LinearOperator neg = [&lap](const std::vector<double>& x, std::vector<double>& y) {
      lap.apply(x, y);
      for (auto& v : y) v = -v;
    };
    std::vector<double> warm(n);
    for (std::size_t i = 0; i < n; ++i) warm[i] = static_cast<double>((i * 37) % 101) - 50.0;
    const std::vector<double> degenerate(n, 1.0);  // deflated away entirely
    for (const SpectralMode mode :
         {SpectralMode::kPlain, SpectralMode::kFiltered, SpectralMode::kShiftInvert}) {
      const std::string tag = std::string(name) + "/" + mode_name(mode) + "/";
      const SpectralAccel accel = accel_for(mode, sub);
      const auto rank1 = [&](const char* what, int k, int cap, const std::vector<double>* init) {
        LanczosOptions o;
        o.num_eigenpairs = k;
        o.block_size = 1;
        o.max_iterations = cap;
        o.seed = 11;
        o.initial = init;
        o.accel = accel;
        record(tag + what, lanczos_smallest(as_operator(lap), n, ones_deflation(n), o));
      };
      rank1("r1 k=1", 1, 400, nullptr);
      rank1("r1 k=1 degenerate warm", 1, 400, &degenerate);
      rank1("r1 k=2 warm", 2, 400, &warm);
      rank1("r1 k=2 cap=40", 2, 40, nullptr);
      const auto block = [&](const char* what, int k, int cap, int width) {
        LanczosOptions o;
        o.num_eigenpairs = k;
        o.max_iterations = cap;
        o.block_size = width;
        o.tolerance = 1e-8;
        o.seed = 5;
        o.accel = accel;
        record(tag + what, lanczos_smallest(as_operator(lap), n, ones_deflation(n), o));
      };
      block("blk k=2", 2, 400, 0);
      block("blk k=4 width=3", 4, 400, 3);
      block("blk k=4 cap=40", 4, 40, 0);
      // The expander certificate's top solve: -L, no deflation, upper
      // bound 0, shift-invert below -λmax(L).
      SpectralAccel top = accel;
      top.op_upper_bound = 0.0;
      if (mode == SpectralMode::kShiftInvert) top.shift = -(accel.op_upper_bound + 1.0);
      LanczosOptions o;
      o.seed = 12;
      o.accel = top;
      record(tag + "-L r1", lanczos_smallest(neg, n, {}, o));
      LanczosOptions b;
      b.num_eigenpairs = 2;
      b.seed = 12;
      b.accel = top;
      record(tag + "-L blk k=2", lanczos_smallest(neg, n, {}, b));
    }
  }
  return out;
}

TEST(SpectralModes, DriverPathsPinnedAtEveryModeAndShape) {
  // Iterations and convergence are pinned exactly and eigenvalues to
  // 1e-12 relative, so a restructured solver body that changes a single
  // operation order or check cadence shows here.  Vector bits are not
  // pinned: SIMD reductions may round differently across compilers.
  const std::vector<PinnedSolve> expected = {
      {"mesh20/plain/r1 k=1", 90, true, {0.024623318809726073}},
      {"mesh20/plain/r1 k=1 degenerate warm", 90, true, {0.024623318809726073}},
      {"mesh20/plain/r1 k=2 warm", 90, true, {0.024623318809724508, 0.049246637619449335}},
      {"mesh20/plain/r1 k=2 cap=40", 40, false, {0.024801544720381919, 0.056323147145354857}},
      {"mesh20/plain/blk k=2", 211, true, {0.024623318809717933, 0.024623318809726374}},
      {"mesh20/plain/blk k=4 width=3", 211, true,
       {0.024623318809722523, 0.024623318809725805, 0.049246637619448405, 0.09788696740969928}},
      {"mesh20/plain/blk k=4 cap=40", 40, false,
       {0.033945695980174488, 0.069375454001080181, 0.13616354473886222, 0.20379029767519957}},
      {"mesh20/plain/-L r1", 70, true, {-7.9507533623805511}},
      {"mesh20/plain/-L blk k=2", 141, true, {-7.9507533623805502, -7.8774897137805828}},
      {"mesh20/filtered/r1 k=1", 36, true, {0.024623318809724563}},
      {"mesh20/filtered/r1 k=1 degenerate warm", 36, true, {0.024623318809724563}},
      {"mesh20/filtered/r1 k=2 warm", 36, true, {0.024623318809724525, 0.049246637619449127}},
      {"mesh20/filtered/r1 k=2 cap=40", 36, true, {0.02462331880972457, 0.04924663761944912}},
      {"mesh20/filtered/blk k=2", 58, true, {0.024623318809724556, 0.024623318809724584}},
      {"mesh20/filtered/blk k=4 width=3", 79, true,
       {0.02462331880972456, 0.024623318809724567, 0.049246637619449085, 0.09788696740969291}},
      {"mesh20/filtered/blk k=4 cap=40", 56, false,
       {0.024623318809724661, 0.024623318809725122, 0.0492466376194605, 0.097886967409700057}},
      {"mesh20/filtered/-L r1", 36, true, {-7.9507533623805511}},
      {"mesh20/filtered/-L blk k=2", 44, true, {-7.9507533623805537, -7.8774897137805828}},
      {"mesh20/shift_invert/r1 k=1", 30, true, {0.024623318809724581}},
      {"mesh20/shift_invert/r1 k=1 degenerate warm", 30, true, {0.024623318809724581}},
      {"mesh20/shift_invert/r1 k=2 warm", 30, true, {0.024623318809724522, 0.02462331880972457}},
      {"mesh20/shift_invert/r1 k=2 cap=40", 30, true, {0.024623318809724577, 0.024623318809724581}},
      {"mesh20/shift_invert/blk k=2", 19, true, {0.024623318809724543, 0.024623318809724543}},
      {"mesh20/shift_invert/blk k=4 width=3", 42, true,
       {0.024623318809724553, 0.02462331880972456, 0.049246637619449099, 0.097886967409692868}},
      {"mesh20/shift_invert/blk k=4 cap=40", 40, true,
       {0.024623318809724539, 0.024623318809724553, 0.049246637619449127, 0.09788696740969284}},
      {"mesh20/shift_invert/-L r1", 30, true, {-7.9507533623805511}},
      {"mesh20/shift_invert/-L blk k=2", 63, true, {-7.9507533623805529, -7.8774897137805828}},
      {"rr300/plain/r1 k=1", 100, true, {0.59374588240985926}},
      {"rr300/plain/r1 k=1 degenerate warm", 100, true, {0.59374588240985926}},
      {"rr300/plain/r1 k=2 warm", 120, true, {0.59374588240985904, 0.6339133202655165}},
      {"rr300/plain/r1 k=2 cap=40", 40, false, {0.59374932293235561, 0.63655686624916186}},
      {"rr300/plain/blk k=2", 211, true, {0.59374588240985726, 0.6339133202655185}},
      {"rr300/plain/blk k=4 width=3", 211, true,
       {0.59374588240986359, 0.63391332026552294, 0.64066317647642035, 0.68869532692716706}},
      {"rr300/plain/blk k=4 cap=40", 40, false,
       {0.63026938688265544, 0.6423258062833711, 0.72472558852219704, 0.80553633096887511}},
      {"rr300/plain/-L r1", 120, true, {-7.4071091297835201}},
      {"rr300/plain/-L blk k=2", 211, true, {-7.4071091297835165, -7.3998339294884801}},
      {"rr300/filtered/r1 k=1", 36, true, {0.59374588240986081}},
      {"rr300/filtered/r1 k=1 degenerate warm", 36, true, {0.59374588240986081}},
      {"rr300/filtered/r1 k=2 warm", 46, true, {0.59374588240986059, 0.63391332026551805}},
      {"rr300/filtered/r1 k=2 cap=40", 46, true, {0.5937458824098607, 0.63391332026551817}},
      {"rr300/filtered/blk k=2", 58, true, {0.59374588240986081, 0.63391332026551783}},
      {"rr300/filtered/blk k=4 width=3", 79, true,
       {0.59374588240986081, 0.63391332026551772, 0.64066317647642246, 0.68869532692716895}},
      {"rr300/filtered/blk k=4 cap=40", 56, false,
       {0.59374588240986059, 0.63391332026551883, 0.64066317647642268, 0.68869532692726176}},
      {"rr300/filtered/-L r1", 46, true, {-7.4071091297835228}},
      {"rr300/filtered/-L blk k=2", 58, true, {-7.4071091297835228, -7.3998339294884792}},
      {"rr300/shift_invert/r1 k=1", 30, true, {0.59374588240986059}},
      {"rr300/shift_invert/r1 k=1 degenerate warm", 30, true, {0.59374588240986059}},
      {"rr300/shift_invert/r1 k=2 warm", 40, true, {0.5937458824098607, 0.63391332026551772}},
      {"rr300/shift_invert/r1 k=2 cap=40", 40, true, {0.5937458824098607, 0.63391332026551783}},
      {"rr300/shift_invert/blk k=2", 63, true, {0.59374588240986059, 0.63391332026551805}},
      {"rr300/shift_invert/blk k=4 width=3", 94, true,
       {0.59374588240986048, 0.63391332026551783, 0.64066317647642246, 0.68869532692716928}},
      {"rr300/shift_invert/blk k=4 cap=40", 40, false,
       {0.59374588241299453, 0.63391332082807927, 0.64066317649967863, 0.68869537025708005}},
      {"rr300/shift_invert/-L r1", 60, true, {-7.4071091297835263}},
      {"rr300/shift_invert/-L blk k=2", 94, true, {-7.4071091297835219, -7.3998339294884747}},
  };
  const std::vector<PinnedSolve> actual = run_pinned_solves();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const PinnedSolve& want = expected[i];
    const PinnedSolve& got = actual[i];
    SCOPED_TRACE(want.label);
    ASSERT_EQ(got.label, want.label);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.converged, want.converged);
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t e = 0; e < want.values.size(); ++e) {
      EXPECT_NEAR(got.values[e], want.values[e], 1e-12 * std::fabs(want.values[e])) << "pair " << e;
    }
  }
}

TEST(SpectralModesSlow, BitIdenticalAcrossThreadsEveryMode) {
  // The PR-6 acceptance bar: every mode — including the CG inner solve
  // and the Chebyshev recurrence — is a pure function of its inputs for
  // ANY OMP thread count, on both sides of kSpectralParallelDim.
  // Convergence is NOT required for determinism, so iteration caps keep
  // the large plain solves cheap.
  for (const int side : {64, 96}) {
    const Mesh mesh = Mesh::cube(side, 2);
    SubCsr sub;
    sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
    const SubCsrLaplacian lap(sub);
    for (const SpectralMode mode :
         {SpectralMode::kPlain, SpectralMode::kFiltered, SpectralMode::kShiftInvert}) {
      LanczosOptions opts;
      opts.num_eigenpairs = 2;
      opts.tolerance = 1e-8;
      opts.max_iterations = 40;
      opts.seed = 11;
      opts.accel = accel_for(mode, sub);
      const auto solve = [&] {
        return lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
      };
      const LanczosResult first = solve();
      SCOPED_TRACE(mode_name(mode));
      SCOPED_TRACE(side);
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
    }
  }
}

TEST(SpectralModesSlow, DefaultFiedlerOnCertifyCellMatchesPlainAcrossThreads) {
  // Slow: the plain reference needs ~1000 fully reorthogonalized steps
  // on a component of 3500+ vertices before it converges.
  const CertifyComponent cell = certify_component();
  const FiedlerResult fast = fiedler_vector(cell.graph, cell.comp, FiedlerOptions{});
  ASSERT_TRUE(fast.converged);

  FiedlerOptions plain_opts;
  plain_opts.accel.mode = SpectralMode::kPlain;
  plain_opts.max_iterations = 1000;
  const FiedlerResult plain = fiedler_vector(cell.graph, cell.comp, plain_opts);
  ASSERT_TRUE(plain.converged);
  EXPECT_NEAR(fast.lambda2, plain.lambda2, 1e-6);

#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int threads : {1, 2, 4}) {
    omp_set_num_threads(threads);
    const FiedlerResult again = fiedler_vector(cell.graph, cell.comp, FiedlerOptions{});
    SCOPED_TRACE(threads);
    EXPECT_EQ(again.lambda2, fast.lambda2);
    EXPECT_EQ(again.vector, fast.vector);
  }
  omp_set_num_threads(saved);
#endif
}

TEST(SpectralModesSlow, ClusteredSpectrumRegressionSide96) {
  // The case the filter exists for: the side-96 mesh's bottom cluster
  // (μ₁, μ₁, 2μ₁, μ₂ ≈ 0.001–0.004) sits under a spectrum reaching 8,
  // and a plain blocked solve cannot separate it within a 250-vector
  // basis at tol 1e-5.  The Chebyshev filter must converge in the same
  // budget AND reproduce the closed-form eigenvalues — fast but wrong
  // is caught here.
  const Mesh mesh = Mesh::cube(96, 2);
  SubCsr sub;
  sub.build(mesh.graph(), VertexSet::full(mesh.num_vertices()));
  const SubCsrLaplacian lap(sub);

  LanczosOptions opts;
  opts.num_eigenpairs = 4;
  opts.tolerance = 1e-5;
  opts.max_iterations = 250;
  const LanczosResult plain =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  EXPECT_FALSE(plain.converged)
      << "plain converged inside the cap — the regression no longer bites; tighten it";

  opts.accel = accel_for(SpectralMode::kFiltered, sub);
  const LanczosResult filtered =
      lanczos_smallest(as_operator(lap), lap.dim(), ones_deflation(lap.dim()), opts);
  ASSERT_TRUE(filtered.converged);
  ASSERT_EQ(filtered.values.size(), 4u);
  const double mu1 = path_mu(1, 96);
  const double mu2 = path_mu(2, 96);
  EXPECT_NEAR(filtered.values[0], mu1, 2e-4);
  EXPECT_NEAR(filtered.values[1], mu1, 2e-4) << "λ₂ is degenerate on the square mesh";
  EXPECT_NEAR(filtered.values[2], 2.0 * mu1, 2e-4);
  EXPECT_NEAR(filtered.values[3], mu2, 2e-4);
}

}  // namespace
}  // namespace fne
