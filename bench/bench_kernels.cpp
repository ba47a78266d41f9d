// Microbenchmarks of the library's core kernels (google-benchmark).
//
// These do not reproduce paper claims — they track the cost of the
// primitives every experiment is built from, so regressions in the
// substrate are caught independently of the experiment tables.
#include <benchmark/benchmark.h>

#include "core/traversal.hpp"
#include "expansion/exact.hpp"
#include "expansion/sweep.hpp"
#include "faults/fault_model.hpp"
#include "percolation/percolation.hpp"
#include "prune/engine.hpp"
#include "prune/prune2.hpp"
#include "span/steiner.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/kernels.hpp"
#include "spectral/operator.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"

namespace fne {
namespace {

void BM_GraphConstruction(benchmark::State& state) {
  const vid side = static_cast<vid>(state.range(0));
  for (auto _ : state) {
    const Mesh m = Mesh::cube(side, 2);
    benchmark::DoNotOptimize(m.graph().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_GraphConstruction)->Arg(16)->Arg(64);

void BM_ConnectedComponents(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  for (auto _ : state) {
    const Components comps = connected_components(m.graph(), alive);
    benchmark::DoNotOptimize(comps.sizes.size());
  }
  state.SetItemsProcessed(state.iterations() * m.num_vertices());
}
BENCHMARK(BM_ConnectedComponents)->Arg(32)->Arg(64);

void BM_BfsDistances(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet all = VertexSet::full(m.num_vertices());
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(m.graph(), all, 0));
  }
  state.SetItemsProcessed(state.iterations() * m.num_vertices());
}
BENCHMARK(BM_BfsDistances)->Arg(32)->Arg(64);

void BM_ExactExpansionScan(benchmark::State& state) {
  const Graph g = random_regular(static_cast<vid>(state.range(0)), 4, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_expansion(g, ExpansionKind::Edge).expansion);
  }
}
BENCHMARK(BM_ExactExpansionScan)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_MaskedLaplacianApply(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  const MaskedLaplacian lap(m.graph(), alive);
  std::vector<double> x(lap.dim(), 1.0), y(lap.dim(), 0.0);
  for (auto _ : state) {
    lap.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lap.dim()));
}
BENCHMARK(BM_MaskedLaplacianApply)->Arg(32)->Arg(64);

void BM_SubCsrApply(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  SubCsr sub;
  sub.build(m.graph(), alive);
  const SubCsrLaplacian lap(sub);
  std::vector<double> x(lap.dim(), 1.0), y(lap.dim(), 0.0);
  for (auto _ : state) {
    lap.apply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(lap.dim()));
}
BENCHMARK(BM_SubCsrApply)->Arg(32)->Arg(64);

void BM_SubCsrBuild(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  SubCsr sub;
  for (auto _ : state) {
    sub.build(m.graph(), alive);
    benchmark::DoNotOptimize(sub.adj.data());
  }
  state.SetItemsProcessed(state.iterations() * m.num_vertices());
}
BENCHMARK(BM_SubCsrBuild)->Arg(32)->Arg(64);

// The SIMD-annotated chunked reduction (spectral/kernels.hpp): lane-tree
// dot inside fixed 1024-element chunks.  The argument straddles
// kSpectralParallelDim (8192), so both the serial and the OMP chunk path
// are measured — the vectorization win is tracked here, not assumed.
void BM_SpectralDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n), b(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 1.0 + 1e-6 * static_cast<double>(i % 997);
    b[i] = 2.0 - 1e-6 * static_cast<double>(i % 991);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral_dot(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * sizeof(double)));
}
BENCHMARK(BM_SpectralDot)->Arg(4096)->Arg(16384)->Arg(262144);

void BM_SpectralAxpy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n), y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = 1.0 + 1e-6 * static_cast<double>(i % 997);
  for (auto _ : state) {
    spectral_axpy(1e-9, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(3 * n * sizeof(double)));
}
BENCHMARK(BM_SpectralAxpy)->Arg(4096)->Arg(16384)->Arg(262144);

void BM_FiedlerVector(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet all = VertexSet::full(m.num_vertices());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiedler_vector(m.graph(), all).lambda2);
  }
}
BENCHMARK(BM_FiedlerVector)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_FiedlerSweep(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet all = VertexSet::full(m.num_vertices());
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiedler_sweep(m.graph(), all, ExpansionKind::Edge).expansion);
  }
}
BENCHMARK(BM_FiedlerSweep)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_PercolationTrials(benchmark::State& state) {
  const Mesh m = Mesh::cube(32, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        percolate(m.graph(), PercolationKind::Bond, 0.5, static_cast<int>(state.range(0)), 3)
            .gamma.mean());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PercolationTrials)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_SteinerApprox(benchmark::State& state) {
  const Mesh m = Mesh::cube(16, 2);
  std::vector<vid> terminals;
  for (vid i = 0; i < static_cast<vid>(state.range(0)); ++i) {
    terminals.push_back((i * 37 + 11) % m.num_vertices());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(steiner_approx(m.graph(), terminals).tree_nodes);
  }
}
BENCHMARK(BM_SteinerApprox)->Arg(4)->Arg(12);

void BM_SteinerExact(benchmark::State& state) {
  const Mesh m = Mesh::cube(8, 2);
  std::vector<vid> terminals;
  for (vid i = 0; i < static_cast<vid>(state.range(0)); ++i) {
    terminals.push_back((i * 17 + 3) % m.num_vertices());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(steiner_exact(m.graph(), terminals).tree_nodes);
  }
}
BENCHMARK(BM_SteinerExact)->Arg(4)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_Prune2EndToEnd(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.05, 13);
  const double alpha_e = 2.0 / static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(prune2(m.graph(), alive, alpha_e, 0.125).survivors.count());
  }
}
BENCHMARK(BM_Prune2EndToEnd)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_PruneEngineFastEndToEnd(benchmark::State& state) {
  const Mesh m = Mesh::cube(static_cast<vid>(state.range(0)), 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.05, 13);
  const double alpha_e = 2.0 / static_cast<double>(state.range(0));
  PruneEngine engine(m.graph(), ExpansionKind::Edge);
  PruneEngineOptions fast;
  fast.finder.fast = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(alive, alpha_e, 0.125, fast).survivors.count());
  }
}
BENCHMARK(BM_PruneEngineFastEndToEnd)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_EdgeBoundarySize(benchmark::State& state) {
  const Mesh m = Mesh::cube(64, 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  // A small connected side: the word-level kernel iterates the cheaper
  // endpoint set (alive & ~S evaluated per 64-bit word).
  VertexSet s(m.num_vertices());
  alive.for_each([&](vid v) {
    if (s.count() < static_cast<vid>(state.range(0))) s.set(v);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(edge_boundary_size(m.graph(), alive, s));
  }
}
BENCHMARK(BM_EdgeBoundarySize)->Arg(64)->Arg(1024);

void BM_NodeBoundarySize(benchmark::State& state) {
  const Mesh m = Mesh::cube(64, 2);
  const VertexSet alive = random_node_faults(m.graph(), 0.3, 7);
  VertexSet s(m.num_vertices());
  alive.for_each([&](vid v) {
    if (s.count() < static_cast<vid>(state.range(0))) s.set(v);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(node_boundary_size(m.graph(), alive, s));
  }
}
BENCHMARK(BM_NodeBoundarySize)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace fne

BENCHMARK_MAIN();
