#include "prune/engine.hpp"

#include <gtest/gtest.h>

#include "core/traversal.hpp"
#include "faults/adversary.hpp"
#include "faults/fault_model.hpp"
#include "prune/prune.hpp"
#include "prune/prune2.hpp"
#include "prune/verify.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

// The engine's contract (DESIGN.md §5): in its deterministic (default)
// configuration it must reproduce the stateless reference loop bit for
// bit — identical survivors AND an identical sequence of culled records.
void expect_identical(const PruneResult& engine, const PruneResult& reference,
                      const std::string& context) {
  EXPECT_EQ(engine.survivors, reference.survivors) << context;
  EXPECT_EQ(engine.iterations, reference.iterations) << context;
  EXPECT_EQ(engine.total_culled, reference.total_culled) << context;
  ASSERT_EQ(engine.culled.size(), reference.culled.size()) << context;
  for (std::size_t i = 0; i < engine.culled.size(); ++i) {
    const CulledRecord& a = engine.culled[i];
    const CulledRecord& b = reference.culled[i];
    EXPECT_EQ(a.set, b.set) << context << " record " << i;
    EXPECT_EQ(a.size, b.size) << context << " record " << i;
    EXPECT_EQ(a.boundary, b.boundary) << context << " record " << i;
    EXPECT_EQ(a.ratio, b.ratio) << context << " record " << i;
  }
}

[[nodiscard]] PruneEngineOptions fast_options() {
  PruneEngineOptions o;
  o.finder.fast = true;
  return o;
}

TEST(PruneEngine, BitIdenticalToReferenceOnRandomRegular) {
  Rng rng(101);
  for (int trial = 0; trial < 4; ++trial) {
    const std::uint64_t graph_seed = rng.next();
    const Graph g = random_regular(48, 4, graph_seed);
    const VertexSet alive = random_node_faults(g, 0.15, rng.next());
    const PruneResult engine = prune(g, alive, 0.8, 0.5);
    const PruneResult reference = prune_reference(g, alive, 0.8, 0.5);
    expect_identical(engine, reference, "rand-4-reg trial " + std::to_string(trial));
  }
}

TEST(PruneEngine, BitIdenticalToReferenceOnFaultyMesh) {
  Rng rng(202);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = Mesh({12, 12}).graph();
    const VertexSet alive = random_node_faults(g, 0.25, rng.next());
    const PruneResult engine = prune(g, alive, 0.6, 0.5);
    const PruneResult reference = prune_reference(g, alive, 0.6, 0.5);
    expect_identical(engine, reference, "mesh trial " + std::to_string(trial));
  }
}

TEST(PruneEngine, BitIdenticalToReferenceOnAdversarialFaults) {
  const Graph g = random_regular(64, 4, 7);
  for (const char* name : {"high-degree", "sweep-cut"}) {
    const AttackResult attack = std::string(name) == "high-degree"
                                    ? high_degree_attack(g, 8)
                                    : sweep_cut_attack(g, 8);
    const VertexSet alive = VertexSet::full(g.num_vertices()) - attack.faults;
    const PruneResult engine = prune(g, alive, 0.7, 0.5);
    const PruneResult reference = prune_reference(g, alive, 0.7, 0.5);
    expect_identical(engine, reference, name);
  }
}

TEST(PruneEngine, BitIdenticalToReferenceForPrune2) {
  Rng rng(303);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = Mesh({10, 10}).graph();
    const VertexSet alive = random_node_faults(g, 0.08, rng.next());
    const PruneResult engine = prune2(g, alive, 0.3, 0.25);
    const PruneResult reference = prune2_reference(g, alive, 0.3, 0.25);
    expect_identical(engine, reference, "prune2 mesh trial " + std::to_string(trial));
  }
}

TEST(PruneEngine, BitIdenticalWithCompactifyDisabled) {
  const Graph g = Mesh({9, 9}).graph();
  const VertexSet alive = random_node_faults(g, 0.12, 17);
  PruneEngineOptions opts;
  opts.compactify_enabled = false;
  const PruneResult engine = prune2(g, alive, 0.3, 0.25, opts);
  const PruneResult reference = prune2_reference(g, alive, 0.3, 0.25, opts);
  expect_identical(engine, reference, "no-compactify");
}

TEST(PruneEngine, ReusedEngineMatchesFreshRuns) {
  // One engine instance driven over a parameter sweep (the percolation
  // drivers' usage pattern) must behave as if constructed fresh per run.
  const Graph g = Mesh({10, 10}).graph();
  PruneEngine engine(g, ExpansionKind::Node);
  Rng rng(404);
  for (int trial = 0; trial < 3; ++trial) {
    const VertexSet alive = random_node_faults(g, 0.2, rng.next());
    const PruneResult reused = engine.run(alive, 0.6, 0.5);
    const PruneResult fresh = prune_reference(g, alive, 0.6, 0.5);
    expect_identical(reused, fresh, "reuse trial " + std::to_string(trial));
  }
}

TEST(PruneEngine, FastModeProducesCertifiedTraces) {
  // Fast mode may cull different sets, but every record must replay: the
  // trace check is exactly the paper's validity condition.
  Rng rng(505);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph g = Mesh({12, 12}).graph();
    const VertexSet alive = random_node_faults(g, 0.25, rng.next());
    const double alpha = 0.6;
    const double eps = 0.5;
    PruneEngine engine(g, ExpansionKind::Node);
    const PruneResult fast = engine.run(alive, alpha, eps, fast_options());
    const TraceVerification v =
        verify_prune_trace(g, alive, fast, ExpansionKind::Node, alpha * eps);
    EXPECT_TRUE(v.valid) << "trial " << trial << ": " << v.reason;
    // Survivors still form one connected piece (any detached piece <= half
    // would be a 0-boundary violation the loop cannot have missed).
    if (fast.survivors.count() >= 2) {
      EXPECT_TRUE(is_connected(g, fast.survivors)) << "trial " << trial;
    }
  }
}

TEST(PruneEngine, FastModeEdgeTracesReplay) {
  Rng rng(606);
  const Graph g = Mesh({10, 10}).graph();
  const VertexSet alive = random_node_faults(g, 0.08, rng.next());
  const double alpha_e = 0.3;
  const double eps = 0.25;
  PruneEngine engine(g, ExpansionKind::Edge);
  const PruneResult fast = engine.run(alive, alpha_e, eps, fast_options());
  const TraceVerification v =
      verify_prune_trace(g, alive, fast, ExpansionKind::Edge, alpha_e * eps);
  EXPECT_TRUE(v.valid) << v.reason;
}

TEST(PruneEngine, HandlesShatteredAndTinyMasks) {
  const Graph g = Mesh({6, 6}).graph();
  // Empty mask.
  PruneEngine engine(g, ExpansionKind::Node);
  const PruneResult empty = engine.run(VertexSet(g.num_vertices()), 1.0, 0.5);
  EXPECT_EQ(empty.survivors.count(), 0U);
  EXPECT_EQ(empty.iterations, 0);
  // Single vertex.
  const PruneResult one = engine.run(VertexSet::of(g.num_vertices(), {5}), 1.0, 0.5);
  EXPECT_EQ(one.survivors.count(), 1U);
  // Heavily shattered mask (mostly step-1 culls).
  const VertexSet alive = random_node_faults(g, 0.6, 11);
  const PruneResult shattered = engine.run(alive, 1.0, 0.5);
  const PruneResult reference = prune_reference(g, alive, 1.0, 0.5);
  expect_identical(shattered, reference, "shattered");
}

TEST(PruneEngine, ParameterValidation) {
  const Graph g = Mesh({4, 4}).graph();
  PruneEngine engine(g, ExpansionKind::Node);
  EXPECT_THROW((void)engine.run(VertexSet::full(16), 0.0, 0.5), PreconditionError);
  EXPECT_THROW((void)engine.run(VertexSet::full(16), 1.0, 1.0), PreconditionError);
  EXPECT_THROW((void)engine.run(VertexSet(8), 1.0, 0.5), PreconditionError);
}

}  // namespace
}  // namespace fne
