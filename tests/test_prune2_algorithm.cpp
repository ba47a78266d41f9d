#include "prune/prune2.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "core/traversal.hpp"
#include "expansion/exact.hpp"
#include "faults/fault_model.hpp"
#include "prune/verify.hpp"
#include "topology/classic.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

TEST(Prune2, NoViolationMeansNoCulling) {
  const Graph g = cycle_graph(14);
  const double alpha_e = exact_expansion(g, ExpansionKind::Edge).expansion;
  const PruneResult result = prune2(g, VertexSet::full(14), alpha_e, 0.5);
  EXPECT_EQ(result.survivors.count(), 14U);
}

TEST(Prune2, CulledSetsAreConnectedAndCompactAtCullTime) {
  Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const Mesh m({9, 9});
    const VertexSet alive = random_node_faults(m.graph(), 0.2, rng.next());
    const double alpha_e = 0.3;
    const double eps = 0.25;
    const PruneResult result = prune2(m.graph(), alive, alpha_e, eps);
    const TraceVerification v = verify_prune_trace(m.graph(), alive, result,
                                                   ExpansionKind::Edge, alpha_e * eps,
                                                   /*require_compact=*/false);
    EXPECT_TRUE(v.valid) << "trial " << trial << ": " << v.reason;
  }
}

TEST(Prune2, CompactifiedRecordsPassCompactReplay) {
  const Mesh m({8, 8});
  const VertexSet alive = random_node_faults(m.graph(), 0.22, 17);
  const double alpha_e = 0.3;
  const double eps = 0.25;
  const PruneResult result = prune2(m.graph(), alive, alpha_e, eps);
  // With compactification ON (default), every culled set must be compact
  // in the graph it was culled from.
  const TraceVerification v = verify_prune_trace(m.graph(), alive, result,
                                                 ExpansionKind::Edge, alpha_e * eps,
                                                 /*require_compact=*/true);
  EXPECT_TRUE(v.valid) << v.reason;
}

TEST(Prune2, AblationWithoutCompactificationStillValidTrace) {
  const Mesh m({8, 8});
  const VertexSet alive = random_node_faults(m.graph(), 0.22, 23);
  PruneEngineOptions opts;
  opts.compactify_enabled = false;
  const PruneResult result = prune2(m.graph(), alive, 0.3, 0.25, opts);
  const TraceVerification v = verify_prune_trace(m.graph(), alive, result,
                                                 ExpansionKind::Edge, 0.3 * 0.25,
                                                 /*require_compact=*/false);
  EXPECT_TRUE(v.valid) << v.reason;
}

TEST(Prune2, SurvivorAccounting) {
  const Mesh m({8, 8});
  const VertexSet alive = random_node_faults(m.graph(), 0.25, 31);
  const PruneResult result = prune2(m.graph(), alive, 0.3, 0.25);
  VertexSet reconstructed = result.survivors;
  for (const CulledRecord& rec : result.culled) {
    EXPECT_FALSE(reconstructed.intersects(rec.set));
    reconstructed |= rec.set;
  }
  EXPECT_EQ(reconstructed, alive);
}

TEST(Prune2, Theorem34ProbabilityFormula) {
  // p = 1 / (2e δ^{4σ}); for δ = 4, σ = 2 this is 1/(2e·4^8).
  const double p = theorem34_fault_probability(4.0, 2.0);
  EXPECT_NEAR(p, 1.0 / (2.0 * std::exp(1.0) * std::pow(4.0, 8.0)), 1e-15);
  EXPECT_GT(theorem34_fault_probability(2.0, 1.0), p);  // smaller δ/σ → larger p
}

TEST(Prune2, MeshUnderTheoremFaultRateKeepsHalf) {
  // 2-D mesh: δ = 4, σ = 2 (Thm 3.6) → admissible p ≈ 2.8e-6; any modest n
  // then sees (almost) no faults and Prune2 must keep > n/2.  We use a
  // slightly larger p to actually exercise fault handling while staying
  // far below the shattering regime.
  const Mesh m({16, 16});
  const VertexSet alive = random_node_faults(m.graph(), 0.01, 5);
  const double eps = 1.0 / 8.0;  // <= 1/(2δ)
  const PruneResult result = prune2(m.graph(), alive, 0.1, eps);
  EXPECT_GE(result.survivors.count(), 128U);
}

TEST(Prune2, ParameterValidation) {
  const Graph g = path_graph(4);
  EXPECT_THROW((void)prune2(g, VertexSet::full(4), 0.0, 0.5), PreconditionError);
  EXPECT_THROW((void)prune2(g, VertexSet::full(4), 1.0, 1.0), PreconditionError);
}

}  // namespace
}  // namespace fne
