// A4 — baseline comparison: Upfal's degree pruning vs the paper's Prune.
//
// §1.1: "Upfal's pruning does not guarantee a large component of good
// expansion".  We build a network where degree pruning provably keeps a
// bottleneck (two grids joined by a path survive the degree rule intact)
// and show that Prune removes it, preserving the expansion — plus a
// same-budget comparison on an expander where both do fine on size but
// only Prune certifies the expansion.
#include "bench_common.hpp"

#include "expansion/bracket.hpp"
#include "faults/fault_model.hpp"
#include "prune/prune.hpp"
#include "prune/upfal.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"

namespace fne {
namespace {

Graph bridged_grids(vid side) {
  // Two side x side grids joined by a single edge: the §1.3 bottleneck.
  std::vector<Edge> edges;
  const Mesh half = Mesh::cube(side, 2);
  const vid n = half.num_vertices();
  for (const Edge& e : half.graph().edges()) {
    edges.push_back(e);
    edges.push_back({e.u + n, e.v + n});
  }
  edges.push_back({n - 1, n});
  return Graph::from_edges(2 * n, edges);
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();

  bench::print_header("A4", "baseline — Upfal degree pruning vs Prune: size vs expansion "
                            "guarantees");

  Table table({"network", "fault p", "method", "|H|", "exp(H) [lo,up]", "keeps bottleneck?"});

  BracketOptions bopts;
  bopts.exact_limit = 14;
  bopts.seed = seed;

  auto fmt_bracket = [](const ExpansionBracket& b) {
    std::string s = "[";
    s += std::to_string(b.lower).substr(0, 6);
    s += ',';
    s += std::to_string(b.upper).substr(0, 6);
    s += ']';
    return s;
  };

  struct Case {
    std::string name;
    Graph graph;
    double alpha;
  };
  std::vector<Case> cases;
  cases.push_back({"bridged 8x8 grids", bridged_grids(8), 0.2});
  cases.push_back({"rand 4-reg n=256", random_regular(256, 4, seed), 0.45});

  for (const Case& c : cases) {
    const Graph& g = c.graph;
    for (double p : {0.0, 0.05}) {
      const VertexSet alive =
          p == 0.0 ? VertexSet::full(g.num_vertices()) : random_node_faults(g, p, seed + 3);

      const UpfalResult upfal = upfal_prune(g, alive, 0.5);
      const PruneResult ours = prune(g, alive, c.alpha, 0.5);

      for (int method = 0; method < 2; ++method) {
        const VertexSet& survivors = method == 0 ? upfal.survivors : ours.survivors;
        std::string bracket_str = "-";
        bool bottleneck = false;
        if (survivors.count() >= 2) {
          const ExpansionBracket b = expansion_bracket(g, survivors, ExpansionKind::Node, bopts);
          bracket_str = fmt_bracket(b);
          // A bottleneck survived if the best cut of H is far below the
          // target expansion level.
          bottleneck = b.upper < 0.25 * c.alpha;
        }
        table.row()
            .cell(c.name)
            .cell(p, 3)
            .cell(method == 0 ? "Upfal (degree)" : "Prune (ours)")
            .cell(std::size_t{survivors.count()})
            .cell(bracket_str)
            .cell(bottleneck ? "YES (bad)" : "no");
      }
    }
  }
  bench::print_table(
      table,
      "reading (§1.1): Upfal's degree rule keeps more vertices but retains the bridge\n"
      "bottleneck (expansion upper bound collapses); Prune trades a bounded number of\n"
      "vertices for a certified expansion floor — exactly the distinction the paper draws.");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
