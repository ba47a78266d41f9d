#include "span/steiner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/traversal.hpp"
#include "span/compact_sets.hpp"
#include "topology/classic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

void expect_tree_spans(const Graph& g, const SteinerResult& tree,
                       const std::vector<vid>& terminals) {
  for (vid t : terminals) EXPECT_TRUE(tree.nodes.test(t));
  EXPECT_TRUE(is_connected_subset(g, VertexSet::full(g.num_vertices()), tree.nodes));
  EXPECT_EQ(tree.nodes.count(), tree.tree_nodes);
}

// Brute-force oracle (n <= 16): the fewest vertices of a connected set
// that contains every terminal, over all supersets of the terminals.
vid brute_force_tree_nodes(const Graph& g, const std::vector<vid>& terminals) {
  const vid n = g.num_vertices();
  std::vector<std::uint32_t> adj(n, 0);
  for (vid v = 0; v < n; ++v) {
    for (vid w : g.neighbors(v)) adj[v] |= std::uint32_t{1} << w;
  }
  std::uint32_t required = 0;
  for (vid v : terminals) required |= std::uint32_t{1} << v;
  const std::uint32_t free = ((std::uint32_t{1} << n) - 1U) & ~required;
  vid best = n + 1;
  for (std::uint32_t extra = free;; extra = (extra - 1) & free) {
    const std::uint32_t set = required | extra;
    std::uint32_t reach = set & (~set + 1);
    for (std::uint32_t frontier = reach; frontier != 0;) {
      std::uint32_t next = 0;
      for (std::uint32_t f = frontier; f != 0; f &= f - 1) next |= adj[std::countr_zero(f)];
      frontier = next & set & ~reach;
      reach |= frontier;
    }
    if (reach == set) best = std::min<vid>(best, static_cast<vid>(std::popcount(set)));
    if (extra == 0) break;
  }
  return best;
}

TEST(SteinerExact, MatchesBruteForceOracle) {
  Rng rng(2024);
  int checked = 0;
  while (checked < 200) {
    const vid n = 8 + static_cast<vid>(rng.uniform(9));  // 8..16
    const Graph g = erdos_renyi(n, 0.15 + 0.02 * static_cast<double>(rng.uniform(10)), rng.next());
    if (!is_connected(g, VertexSet::full(n))) continue;
    const vid t = 1 + static_cast<vid>(rng.uniform(8));  // 1..8
    const auto terms_idx = rng.sample_without_replacement(n, t);
    const std::vector<vid> terminals(terms_idx.begin(), terms_idx.end());
    const SteinerResult tree = steiner_exact(g, terminals);
    EXPECT_EQ(tree.tree_nodes, brute_force_tree_nodes(g, terminals))
        << "instance " << checked << " n=" << n << " t=" << t;
    EXPECT_EQ(tree.tree_edges + 1, tree.tree_nodes);
    expect_tree_spans(g, tree, terminals);
    ++checked;
  }
}

TEST(SteinerExact, PinnedE8RegimeTreeSizes) {
  // Node boundaries of sampled compact sets, in E8's 12-14 terminal range.
  // The expected sizes were recorded with the previous (unrooted) solver.
  const Graph cube = hypercube(5);
  const Graph bruijn = debruijn(5);
  struct Case {
    const Graph* graph;
    const char* name;
    vid set_size;
    std::uint64_t seed;
    std::size_t terminals;
    vid tree_nodes;
  };
  for (const Case& c : {Case{&cube, "hypercube-5", 8, 2, 13, 15},
                        Case{&cube, "hypercube-5", 16, 1, 14, 14},
                        Case{&bruijn, "debruijn-5", 11, 1, 12, 15},
                        Case{&bruijn, "debruijn-5", 8, 3, 14, 18}}) {
    const Graph& g = *c.graph;
    const VertexSet all = VertexSet::full(g.num_vertices());
    const VertexSet u = sample_compact_set(g, c.set_size, c.seed);
    const std::vector<vid> terminals = node_boundary(g, all, u).to_vector();
    ASSERT_EQ(terminals.size(), c.terminals) << c.name << " seed " << c.seed;
    const SteinerResult tree = steiner_exact(g, terminals);
    EXPECT_EQ(tree.tree_nodes, c.tree_nodes) << c.name << " seed " << c.seed;
    expect_tree_spans(g, tree, terminals);
  }
}

TEST(SteinerExact, SingleTerminal) {
  const Graph g = path_graph(5);
  const SteinerResult t = steiner_exact(g, {3});
  EXPECT_EQ(t.tree_nodes, 1U);
  EXPECT_EQ(t.tree_edges, 0U);
  EXPECT_TRUE(t.nodes.test(3));
}

TEST(SteinerExact, PathEndpointsNeedWholePath) {
  const Graph g = path_graph(7);
  const SteinerResult t = steiner_exact(g, {0, 6});
  EXPECT_EQ(t.tree_edges, 6U);
  EXPECT_EQ(t.tree_nodes, 7U);
  expect_tree_spans(g, t, {0, 6});
}

TEST(SteinerExact, StarLeavesRouteThroughHub) {
  const Graph g = star_graph(6);
  const SteinerResult t = steiner_exact(g, {1, 2, 3});
  EXPECT_EQ(t.tree_nodes, 4U);  // three leaves + hub
  EXPECT_TRUE(t.nodes.test(0));
  expect_tree_spans(g, t, {1, 2, 3});
}

TEST(SteinerExact, GridSteinerPoint) {
  // Terminals at (0,2), (2,0), (2,4), optimal tree uses the cross point.
  const Mesh m({3, 5});
  const std::vector<vid> terminals{m.id_of({0, 2}), m.id_of({2, 0}), m.id_of({2, 4})};
  // Median point (2,2): each terminal is 2 steps away → 6 edges total.
  const SteinerResult t = steiner_exact(m.graph(), terminals);
  EXPECT_EQ(t.tree_edges, 6U);
  expect_tree_spans(m.graph(), t, terminals);
}

TEST(SteinerExact, CycleUsesShorterArc) {
  const Graph g = cycle_graph(10);
  const SteinerResult t = steiner_exact(g, {0, 3});
  EXPECT_EQ(t.tree_edges, 3U);
}

TEST(SteinerApprox, AlwaysSpansAndWithinTwiceOptimal) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = erdos_renyi(16, 0.25, rng.next());
    if (!is_connected(g, VertexSet::full(16))) continue;
    const vid t = 2 + static_cast<vid>(rng.uniform(4));
    const auto terms_idx = rng.sample_without_replacement(16, t);
    const std::vector<vid> terminals(terms_idx.begin(), terms_idx.end());
    const SteinerResult exact = steiner_exact(g, terminals);
    const SteinerResult approx = steiner_approx(g, terminals);
    expect_tree_spans(g, approx, terminals);
    EXPECT_GE(approx.tree_edges + 1e-12, exact.tree_edges);
    EXPECT_LE(approx.tree_edges, 2 * exact.tree_edges + 1)
        << "trial " << trial << " t=" << t;
  }
}

TEST(SteinerApprox, ExactOnTwoTerminals) {
  // With 2 terminals both engines return a shortest path.
  const Mesh m({5, 5});
  const std::vector<vid> terminals{m.id_of({0, 0}), m.id_of({4, 4})};
  const SteinerResult exact = steiner_exact(m.graph(), terminals);
  const SteinerResult approx = steiner_approx(m.graph(), terminals);
  EXPECT_EQ(exact.tree_edges, 8U);
  EXPECT_EQ(approx.tree_edges, 8U);
}

TEST(SteinerDispatch, PicksEngineByBudget) {
  const Graph g = path_graph(10);
  EXPECT_TRUE(steiner_tree(g, {0, 9}).exact);
  EXPECT_TRUE(dreyfus_wagner_feasible(10, 2));
  EXPECT_FALSE(dreyfus_wagner_feasible(1 << 20, 18));
  EXPECT_FALSE(dreyfus_wagner_feasible(100, 19));
}

TEST(SteinerExact, DisconnectedTerminalsRejected) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW((void)steiner_exact(g, {0, 2}), PreconditionError);
  EXPECT_THROW((void)steiner_approx(g, {0, 2}), PreconditionError);
}

TEST(SteinerExact, EmptyTerminalsRejected) {
  const Graph g = path_graph(3);
  EXPECT_THROW((void)steiner_exact(g, {}), PreconditionError);
}

TEST(SteinerExact, OverBudgetRejected) {
  const Graph g = path_graph(20);
  std::vector<vid> terminals(19);
  for (vid i = 0; i < 19; ++i) terminals[i] = i;
  EXPECT_THROW((void)steiner_exact(g, terminals), PreconditionError);
}

TEST(SteinerExact, TreeEdgesMatchNodeCount) {
  Rng rng(19);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = erdos_renyi(14, 0.3, rng.next());
    if (!is_connected(g, VertexSet::full(14))) continue;
    const auto terms_idx = rng.sample_without_replacement(14, 3);
    const SteinerResult t = steiner_exact(g, {terms_idx[0], terms_idx[1], terms_idx[2]});
    EXPECT_EQ(t.tree_nodes, t.tree_edges + 1);
  }
}

}  // namespace
}  // namespace fne
