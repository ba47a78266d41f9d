#include "span/steiner.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <numeric>
#include <utility>

#include "core/traversal.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

constexpr std::uint32_t kInf = 0x3fffffffU;

std::uint64_t pow3(vid t) {
  std::uint64_t p = 1;
  for (vid i = 0; i < t; ++i) p *= 3;
  return p;
}

}  // namespace

bool dreyfus_wagner_feasible(vid n, vid terminals) {
  if (terminals == 0 || terminals > 18) return false;
  return pow3(terminals) * static_cast<std::uint64_t>(n) <= kDreyfusWagnerBudget;
}

SteinerResult steiner_exact(const Graph& g, const std::vector<vid>& terminals) {
  FNE_REQUIRE(!terminals.empty(), "Steiner tree needs >= 1 terminal");
  FNE_REQUIRE(dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size())),
              "Dreyfus–Wagner parameters exceed the cost budget");
  const vid n = g.num_vertices();
  const auto t = static_cast<vid>(terminals.size());

  // Rooted at the last terminal: dp[mask][v] is the fewest edges of a tree
  // spanning v and the terminals in `mask` (bit i = terminals[i], i < t-1),
  // so the optimum is dp[full][root].  The empty mask costs nothing.
  const vid root = terminals[t - 1];
  const std::uint32_t full = (std::uint32_t{1} << (t - 1)) - 1U;
  std::vector<std::uint32_t> dp((std::size_t{full} + 1) * n, kInf);
  std::fill_n(dp.begin(), n, 0U);
  auto row = [&](std::uint32_t mask) { return dp.data() + std::size_t{mask} * n; };

  // Grow step.  With unit weights Dijkstra is a BFS: the row's cells,
  // counting-sorted by cost, are merged with the FIFO of relaxed cells, whose
  // costs never decrease (so a cell enters the FIFO at most once).  A cost of
  // n or more is never optimal (a tree has < n edges), so such a cell is only
  // relaxed, never a seed.
  std::vector<vid> bucket;
  std::vector<std::uint64_t> seeds;  // (cost << 32) | v
  std::vector<vid> fifo;
  auto grow = [&](std::uint32_t* d) {
    bucket.assign(std::size_t{n} + 1, 0);
    for (vid v = 0; v < n; ++v) {
      if (d[v] < n) ++bucket[d[v] + 1];
    }
    std::partial_sum(bucket.begin(), bucket.end(), bucket.begin());
    seeds.resize(bucket[n]);
    for (vid v = 0; v < n; ++v) {
      if (d[v] < n) seeds[bucket[d[v]]++] = (std::uint64_t{d[v]} << 32) | v;
    }
    fifo.clear();
    for (std::size_t next = 0, head = 0; next < seeds.size() || head < fifo.size();) {
      vid v = 0;
      if (head == fifo.size() || (next < seeds.size() && (seeds[next] >> 32) <= d[fifo[head]])) {
        v = static_cast<vid>(seeds[next]);
        if ((seeds[next++] >> 32) != d[v]) continue;  // lowered since: its FIFO entry grows it
      } else {
        v = fifo[head++];
      }
      for (vid w : g.neighbors(v)) {
        if (d[v] + 1 < d[w]) {
          d[w] = d[v] + 1;
          fifo.push_back(w);
        }
      }
    }
  };

  // Every proper submask is numerically smaller than its mask, so numeric
  // order finishes both halves of a split before the merge reads them.
  // Fixing the lowest terminal in one half tries each split once; kInf is
  // small enough that two of them add without wrapping.
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    std::uint32_t* d = row(mask);
    const std::uint32_t low = mask & (~mask + 1);
    const std::uint32_t rest = mask ^ low;
    if (rest == 0) d[terminals[std::countr_zero(mask)]] = 0;
    for (std::uint32_t sub = rest; sub != 0;) {
      sub = (sub - 1) & rest;
      const std::uint32_t* a = row(sub | low);
      const std::uint32_t* b = row(rest ^ sub);
      for (vid v = 0; v < n; ++v) d[v] = std::min(d[v], a[v] + b[v]);
    }
    grow(d);
  }
  const std::uint32_t best = row(full)[root];
  FNE_REQUIRE(best < kInf, "terminals are not mutually connected");

  // Reconstruction by search: a cell's cost is a terminal's own 0, one more
  // than a neighbour's in the same row (grow), or the sum of a split (merge).
  SteinerResult result{best + 1, best, /*exact=*/true, VertexSet(n)};
  std::vector<std::pair<std::uint32_t, vid>> stack{{full, root}};
  while (!stack.empty()) {
    const auto [mask, v] = stack.back();
    stack.pop_back();
    result.nodes.set(v);
    const std::uint32_t* d = row(mask);
    if (d[v] == 0 && (mask & (mask - 1)) == 0) continue;
    const auto nbrs = g.neighbors(v);
    const auto step =
        std::find_if(nbrs.begin(), nbrs.end(), [&](vid w) { return d[w] + 1 == d[v]; });
    if (step != nbrs.end()) {
      stack.push_back({mask, *step});
      continue;
    }
    const std::uint32_t low = mask & (~mask + 1);
    const std::uint32_t rest = mask ^ low;
    for (std::uint32_t sub = rest; sub != 0;) {
      sub = (sub - 1) & rest;
      if (row(sub | low)[v] + row(rest ^ sub)[v] == d[v]) {
        stack.push_back({sub | low, v});
        stack.push_back({rest ^ sub, v});
        break;
      }
    }
  }
  return result;
}

SteinerResult steiner_approx(const Graph& g, const std::vector<vid>& terminals) {
  FNE_REQUIRE(!terminals.empty(), "Steiner tree needs >= 1 terminal");
  const vid n = g.num_vertices();
  const auto t = static_cast<vid>(terminals.size());
  SteinerResult result;
  result.exact = false;
  result.nodes = VertexSet(n);
  if (t == 1) {
    result.nodes.set(terminals[0]);
    result.tree_nodes = 1;
    return result;
  }

  // BFS from every terminal (distances + parents).
  const VertexSet all = VertexSet::full(n);
  std::vector<std::vector<std::uint32_t>> dist(t);
  std::vector<std::vector<vid>> parent(t, std::vector<vid>(n, kInvalidVertex));
  for (vid i = 0; i < t; ++i) {
    dist[i].assign(n, kUnreached);
    std::deque<vid> queue{terminals[i]};
    dist[i][terminals[i]] = 0;
    while (!queue.empty()) {
      const vid u = queue.front();
      queue.pop_front();
      for (vid w : g.neighbors(u)) {
        if (dist[i][w] == kUnreached) {
          dist[i][w] = dist[i][u] + 1;
          parent[i][w] = u;
          queue.push_back(w);
        }
      }
    }
  }

  // Prim MST over the metric closure of the terminals.
  std::vector<bool> in_tree(t, false);
  std::vector<std::uint32_t> best(t, kUnreached);
  std::vector<vid> best_from(t, 0);
  best[0] = 0;
  for (vid round = 0; round < t; ++round) {
    vid pick = kInvalidVertex;
    for (vid i = 0; i < t; ++i) {
      if (!in_tree[i] && (pick == kInvalidVertex || best[i] < best[pick])) pick = i;
    }
    FNE_REQUIRE(pick != kInvalidVertex && best[pick] != kUnreached,
                "terminals are not mutually connected");
    in_tree[pick] = true;
    if (round > 0) {
      // Realize the closure edge: walk terminal `pick` home along the BFS
      // parents of terminal `best_from[pick]`.
      const vid src = best_from[pick];
      vid cur = terminals[pick];
      while (cur != kInvalidVertex) {
        result.nodes.set(cur);
        cur = parent[src][cur];
      }
    } else {
      result.nodes.set(terminals[0]);
    }
    for (vid i = 0; i < t; ++i) {
      if (!in_tree[i] && dist[pick][terminals[i]] < best[i]) {
        best[i] = dist[pick][terminals[i]];
        best_from[i] = pick;
      }
    }
  }

  // Prune: spanning tree of the realized union, then strip non-terminal
  // leaves (standard post-pass that tightens the 2-approx in practice).
  VertexSet terminal_set(n);
  for (vid v : terminals) terminal_set.set(v);
  std::vector<vid> tree_parent(n, kInvalidVertex);
  VertexSet seen(n);
  std::deque<vid> queue{terminals[0]};
  seen.set(terminals[0]);
  while (!queue.empty()) {
    const vid u = queue.front();
    queue.pop_front();
    for (vid w : g.neighbors(u)) {
      if (result.nodes.test(w) && !seen.test(w)) {
        seen.set(w);
        tree_parent[w] = u;
        queue.push_back(w);
      }
    }
  }
  std::vector<vid> child_count(n, 0);
  seen.for_each([&](vid v) {
    if (tree_parent[v] != kInvalidVertex) ++child_count[tree_parent[v]];
  });
  std::vector<vid> leaves;
  seen.for_each([&](vid v) {
    if (child_count[v] == 0 && !terminal_set.test(v)) leaves.push_back(v);
  });
  while (!leaves.empty()) {
    const vid v = leaves.back();
    leaves.pop_back();
    seen.reset(v);
    const vid p = tree_parent[v];
    if (p != kInvalidVertex && --child_count[p] == 0 && !terminal_set.test(p)) {
      leaves.push_back(p);
    }
  }
  result.nodes = seen;
  result.tree_nodes = seen.count();
  result.tree_edges = result.tree_nodes > 0 ? result.tree_nodes - 1 : 0;
  return result;
}

SteinerResult steiner_tree(const Graph& g, const std::vector<vid>& terminals) {
  if (dreyfus_wagner_feasible(g.num_vertices(), static_cast<vid>(terminals.size()))) {
    return steiner_exact(g, terminals);
  }
  return steiner_approx(g, terminals);
}

}  // namespace fne
