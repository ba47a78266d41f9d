// Span explorer (paper §3.3 and §4): compute exact spans of small
// networks and sampled estimates for the families whose span the paper
// conjectures to be O(1).
//
//   ./span_explorer [--samples=16] [--seed=42]
#include <iostream>

#include "span/span.hpp"
#include "topology/butterfly.hpp"
#include "topology/classic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/shuffle_exchange.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const int samples = cli.get_int_in_range<int>("samples", 16, 1, 1000000);
  const std::uint64_t seed = cli.get_seed();

  std::cout << "exact spans (exhaustive compact sets + exact Steiner trees)\n\n";
  Table exact_table({"network", "n", "compact sets", "span", "note"});
  exact_table.row().cell("path P_8").cell(std::size_t{8});
  {
    const SpanResult r = exact_span(path_graph(8));
    exact_table.cell(r.sets_examined).cell(r.span, 4).cell("1D mesh: span 1");
  }
  exact_table.row().cell("cycle C_10").cell(std::size_t{10});
  {
    const SpanResult r = exact_span(cycle_graph(10));
    exact_table.cell(r.sets_examined).cell(r.span, 4).cell("arcs: (n/2+1)/2");
  }
  exact_table.row().cell("mesh 4x4").cell(std::size_t{16});
  {
    const SpanResult r = exact_span(Mesh::cube(4, 2).graph());
    exact_table.cell(r.sets_examined).cell(r.span, 4).cell("Theorem 3.6: <= 2");
  }
  exact_table.row().cell("hypercube Q_4").cell(std::size_t{16});
  {
    const SpanResult r = exact_span(hypercube(4));
    exact_table.cell(r.sets_examined).cell(r.span, 4).cell("conjectured O(1)");
  }
  exact_table.print(std::cout);

  std::cout << "\nsampled span estimates (§4 conjecture families)\n\n";
  Table est_table({"network", "n", "estimate", "exact steiner?"});
  SpanEstimateOptions opts;
  opts.samples_per_size = samples;
  opts.seed = seed;
  auto probe = [&](const std::string& name, const Graph& g) {
    const SpanResult r = estimate_span(g, opts);
    est_table.row().cell(name).cell(std::size_t{g.num_vertices()}).cell(r.span, 4).cell(
        r.exact ? "yes" : "no (<= 2x over)");
  };
  probe("butterfly d=5", butterfly(5).graph);
  probe("de Bruijn d=8", debruijn(8));
  probe("shuffle-exchange d=8", shuffle_exchange(8));
  probe("mesh 16x16", Mesh::cube(16, 2).graph());
  est_table.print(std::cout);
  std::cout << "\nflat estimates across sizes support the §4 conjecture that these networks\n"
               "have constant span, hence constant-probability random-fault tolerance via\n"
               "Theorem 3.4.\n";
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
