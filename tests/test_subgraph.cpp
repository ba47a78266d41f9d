#include "core/subgraph.hpp"

#include <gtest/gtest.h>

#include "topology/classic.hpp"

namespace fne {
namespace {

TEST(Subgraph, ExtractsInducedEdges) {
  const Graph g = cycle_graph(6);
  const InducedSubgraph sub = induced_subgraph(g, VertexSet::of(6, {0, 1, 2, 4}));
  EXPECT_EQ(sub.graph.num_vertices(), 4U);
  // Induced edges: 0-1, 1-2 (4 is isolated inside the subgraph).
  EXPECT_EQ(sub.graph.num_edges(), 2U);
}

TEST(Subgraph, MappingsAreInverse) {
  const Graph g = path_graph(10);
  const VertexSet keep = VertexSet::of(10, {1, 3, 4, 9});
  const InducedSubgraph sub = induced_subgraph(g, keep);
  for (vid i = 0; i < sub.graph.num_vertices(); ++i) {
    EXPECT_EQ(sub.to_sub[sub.to_original[i]], i);
  }
  for (vid v = 0; v < 10; ++v) {
    if (!keep.test(v)) {
      EXPECT_EQ(sub.to_sub[v], kInvalidVertex);
    }
  }
}

TEST(Subgraph, LiftRestrictRoundTrip) {
  const Graph g = path_graph(8);
  const VertexSet keep = VertexSet::of(8, {2, 3, 5, 6});
  const InducedSubgraph sub = induced_subgraph(g, keep);
  const VertexSet inner = VertexSet::of(sub.graph.num_vertices(), {0, 2});
  const VertexSet lifted = sub.lift(inner);
  EXPECT_EQ(lifted.count(), 2U);
  EXPECT_TRUE(lifted.is_subset_of(keep));
  EXPECT_EQ(sub.restrict(lifted), inner);
}

TEST(Subgraph, RestrictDropsOutsiders) {
  const Graph g = path_graph(6);
  const InducedSubgraph sub = induced_subgraph(g, VertexSet::of(6, {0, 1}));
  const VertexSet mixed = VertexSet::of(6, {1, 4});
  EXPECT_EQ(sub.restrict(mixed).count(), 1U);
}

TEST(Subgraph, EmptySelection) {
  const Graph g = path_graph(4);
  const InducedSubgraph sub = induced_subgraph(g, VertexSet(4));
  EXPECT_EQ(sub.graph.num_vertices(), 0U);
  EXPECT_EQ(sub.graph.num_edges(), 0U);
}

TEST(Subgraph, FullSelectionIsIsomorphicCopy) {
  const Graph g = cycle_graph(5);
  const InducedSubgraph sub = induced_subgraph(g, VertexSet::full(5));
  EXPECT_EQ(sub.graph.num_edges(), g.num_edges());
  for (const Edge& e : g.edges()) EXPECT_TRUE(sub.graph.has_edge(e.u, e.v));
}

}  // namespace
}  // namespace fne
