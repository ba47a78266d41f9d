// E10 — Claim 3.2: the number of connected subgraphs spanned by r vertices
// of a graph with maximum degree δ is at most n·δ^{2r} (the Eulerian-walk
// counting argument, Motwani–Raghavan Ex. 5.7).
#include "bench_common.hpp"

#include <cmath>

#include "span/compact_sets.hpp"
#include "topology/classic.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();

  bench::print_header("E10", "Claim 3.2 — #connected r-subgraphs <= n·δ^{2r}");

  Table table({"graph", "n", "delta", "r", "count", "bound n*d^2r", "ratio", "ok"});

  auto probe = [&](const std::string& name, const Graph& g, vid r_max) {
    const VertexSet all = VertexSet::full(g.num_vertices());
    const double delta = g.max_degree();
    for (vid r = 1; r <= r_max; ++r) {
      const std::uint64_t count = count_connected_subgraphs_with_marked(g, all, r, r);
      const double bound =
          static_cast<double>(g.num_vertices()) * std::pow(delta, 2.0 * r);
      table.row()
          .cell(name)
          .cell(std::size_t{g.num_vertices()})
          .cell(std::size_t{g.max_degree()})
          .cell(std::size_t{r})
          .cell(static_cast<long long>(count))
          .cell(bound, 4)
          .cell(static_cast<double>(count) / bound, 4)
          .cell(bench::yesno(static_cast<double>(count) <= bound));
    }
  };

  probe("cycle C_12", cycle_graph(12), 6);
  probe("mesh 4x4", Mesh::cube(4, 2).graph(), 5);
  probe("mesh 2x2x2", Mesh::cube(2, 3).graph(), 5);
  probe("rand 4-reg n=16", random_regular(16, 4, seed), 5);
  probe("complete K_8", complete_graph(8), 4);

  bench::print_table(table,
                     "paper prediction: ratio <= 1 everywhere (the bound is loose — ratios\n"
                     "shrink rapidly with r, which is what makes the union bound in\n"
                     "Theorem 3.1/3.4 usable).");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
