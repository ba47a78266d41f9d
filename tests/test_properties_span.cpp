// Property suite: span / compact-set / Steiner invariants swept over
// mesh geometries (Theorem 3.6 territory) and the §4 conjecture families.
#include <memory>

#include <gtest/gtest.h>

#include "core/traversal.hpp"
#include "span/compact_sets.hpp"
#include "span/mesh_span.hpp"
#include "span/span.hpp"
#include "span/steiner.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

struct MeshCase {
  std::vector<vid> sides;
  bool wrap = false;

  [[nodiscard]] std::string label() const {
    std::string s = wrap ? "torus" : "mesh";
    for (vid side : sides) {
      s += '_';
      s += std::to_string(side);
    }
    return s;
  }
  friend std::ostream& operator<<(std::ostream& os, const MeshCase& c) {
    return os << c.label();
  }
};

class MeshSpanProperties : public ::testing::TestWithParam<MeshCase> {
 protected:
  void SetUp() override { mesh_ = std::make_unique<Mesh>(GetParam().sides, GetParam().wrap); }
  std::unique_ptr<Mesh> mesh_;
};

TEST_P(MeshSpanProperties, SampledCompactSetsAreCompact) {
  Rng rng(7);
  const Graph& g = mesh_->graph();
  const VertexSet all = VertexSet::full(g.num_vertices());
  for (int trial = 0; trial < 12; ++trial) {
    const vid target = 1 + static_cast<vid>(rng.uniform(g.num_vertices() / 2));
    const VertexSet s = sample_compact_set(g, target, rng.next());
    if (s.empty()) continue;
    EXPECT_TRUE(is_compact(g, all, s)) << "trial " << trial;
  }
}

TEST_P(MeshSpanProperties, Lemma37VirtualBoundaryConnected) {
  // Lemma 3.7 is a statement about Z^d (meshes); tori admit compact
  // wrap-around bands whose boundary splits into disjoint rings — see
  // TorusBandBreaksLemma37 below.
  if (GetParam().wrap) GTEST_SKIP() << "Lemma 3.7 does not extend to tori";
  Rng rng(11);
  for (int trial = 0; trial < 12; ++trial) {
    const vid target =
        1 + static_cast<vid>(rng.uniform(mesh_->num_vertices() / 3));
    const VertexSet s = sample_compact_set(mesh_->graph(), target, rng.next());
    if (s.empty()) continue;
    EXPECT_TRUE(virtual_boundary_connected(*mesh_, s)) << "trial " << trial;
  }
}

TEST_P(MeshSpanProperties, ConstructiveTreeWithinTheorem36Bound) {
  if (GetParam().wrap) GTEST_SKIP() << "Theorem 3.6's construction needs Lemma 3.7 (no tori)";
  Rng rng(13);
  for (int trial = 0; trial < 12; ++trial) {
    const vid target =
        1 + static_cast<vid>(rng.uniform(mesh_->num_vertices() / 3));
    const VertexSet s = sample_compact_set(mesh_->graph(), target, rng.next());
    if (s.empty()) continue;
    const ConstructiveSpanTree tree = mesh_boundary_span_tree(*mesh_, s);
    EXPECT_LE(tree.tree_edges, 2 * (tree.boundary_size - 1));
    EXPECT_LE(tree.tree_nodes, 2 * tree.boundary_size - 1);
    EXPECT_LT(tree.ratio, 2.0);
  }
}

TEST_P(MeshSpanProperties, ConstructiveTreeDominatesSteinerOptimum) {
  // The Theorem 3.6 tree is a feasible boundary-spanning tree, so the
  // optimal Steiner tree can only be smaller.
  Rng rng(17);
  const Graph& g = mesh_->graph();
  const VertexSet all = VertexSet::full(g.num_vertices());
  for (int trial = 0; trial < 6; ++trial) {
    const VertexSet s = sample_compact_set(g, 3, rng.next());
    if (s.empty()) continue;
    const std::vector<vid> terminals = node_boundary(g, all, s).to_vector();
    if (terminals.empty() ||
        !dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size()))) {
      continue;
    }
    const ConstructiveSpanTree constructive = mesh_boundary_span_tree(*mesh_, s);
    const SteinerResult optimal = steiner_exact(g, terminals);
    EXPECT_LE(optimal.tree_nodes, constructive.tree_nodes);
  }
}

TEST_P(MeshSpanProperties, ApproxSteinerWithinTwiceOptimal) {
  Rng rng(19);
  const Graph& g = mesh_->graph();
  const VertexSet all = VertexSet::full(g.num_vertices());
  for (int trial = 0; trial < 6; ++trial) {
    const VertexSet s = sample_compact_set(g, 2, rng.next());
    if (s.empty()) continue;
    const std::vector<vid> terminals = node_boundary(g, all, s).to_vector();
    if (terminals.empty() ||
        !dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size()))) {
      continue;
    }
    const SteinerResult exact = steiner_exact(g, terminals);
    const SteinerResult approx = steiner_approx(g, terminals);
    EXPECT_GE(approx.tree_edges, exact.tree_edges);
    EXPECT_LE(approx.tree_edges, 2 * exact.tree_edges + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MeshSpanProperties,
    ::testing::Values(MeshCase{{9}}, MeshCase{{5, 5}}, MeshCase{{8, 8}}, MeshCase{{3, 7}},
                      MeshCase{{4, 4, 4}}, MeshCase{{3, 3, 3}}, MeshCase{{2, 3, 4}},
                      MeshCase{{3, 3, 2, 2}}, MeshCase{{6, 6}, true},
                      MeshCase{{4, 4, 4}, true}),
    [](const ::testing::TestParamInfo<MeshCase>& info) { return info.param.label(); });

// Negative result worth pinning: Lemma 3.7 does NOT extend to tori.  A
// band wrapping one dimension is compact (band and complement band are
// both connected) but its boundary is two disjoint rings with no virtual
// edges between them.
TEST(TorusCounterexample, TorusBandBreaksLemma37) {
  const Mesh torus({6, 6}, /*wrap=*/true);
  VertexSet band(36);
  for (vid col = 0; col < 6; ++col) {
    band.set(torus.id_of({0, col}));
    band.set(torus.id_of({1, col}));
  }
  ASSERT_TRUE(is_compact(torus.graph(), VertexSet::full(36), band));
  EXPECT_FALSE(virtual_boundary_connected(torus, band));
}

// Exact span <= 2 on every small mesh geometry (exhaustive).
class ExactMeshSpan : public ::testing::TestWithParam<MeshCase> {};

TEST_P(ExactMeshSpan, SpanAtMostTwo) {
  const Mesh mesh(GetParam().sides, GetParam().wrap);
  const SpanResult r = exact_span(mesh.graph());
  EXPECT_LE(r.span, 2.0 + 1e-9);
  EXPECT_GE(r.span, 1.0);
}

INSTANTIATE_TEST_SUITE_P(SmallGeometries, ExactMeshSpan,
                         ::testing::Values(MeshCase{{2, 2}}, MeshCase{{3, 3}},
                                           MeshCase{{2, 5}}, MeshCase{{4, 4}},
                                           MeshCase{{2, 2, 2}}, MeshCase{{2, 2, 3}},
                                           MeshCase{{2, 2, 2, 2}}),
                         [](const ::testing::TestParamInfo<MeshCase>& info) {
                           return info.param.label();
                         });

}  // namespace
}  // namespace fne
