// Attack-vs-Prune arena (paper §2): run the adversary portfolio against
// an expander and a mesh with the same fault budget, then let Prune
// recover the good component.  Expanders shrug off Θ(α·n) faults (their
// α is constant); meshes fragment much earlier (α = Θ(1/√n)).
//
//   ./adversarial_attack [--n=256] [--budget=24] [--seed=42]
#include <iostream>

#include "analysis/fragmentation.hpp"
#include "expansion/bracket.hpp"
#include "faults/adversary.hpp"
#include "prune/prune.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const auto n = cli.get_int_in_range<vid>("n", 256, 16, 1 << 24);
  const auto budget = cli.get_int_in_range<vid>("budget", 24, 0, 1 << 24);
  const std::uint64_t seed = cli.get_seed();

  std::cout << "adversary portfolio vs Prune (budget " << budget << " faults)\n\n";

  struct Network {
    std::string name;
    Graph graph;
  };
  const vid side = 16;
  const Network networks[] = {
      {"rand-4-regular n=" + std::to_string(n), random_regular(n, 4, seed)},
      {"mesh 16x16", Mesh::cube(side, 2).graph()},
  };

  Table table({"network", "alpha up", "attack", "gamma after attack", "|H| after prune",
               "exp(H) up"});
  for (const Network& net : networks) {
    const Graph& g = net.graph;
    BracketOptions bopts;
    bopts.exact_limit = 14;
    const ExpansionBracket bracket = expansion_bracket(g, ExpansionKind::Node, bopts);
    const double alpha = bracket.upper;

    struct NamedAttack {
      std::string name;
      AttackResult attack;
    };
    const NamedAttack attacks[] = {
        {"random", random_attack(g, budget, seed)},
        {"high-degree", high_degree_attack(g, budget)},
        {"sweep-cut", sweep_cut_attack(g, budget)},
    };
    for (const auto& [name, attack] : attacks) {
      const VertexSet alive = VertexSet::full(g.num_vertices()) - attack.faults;
      const FragmentationProfile frag = fragmentation_profile(g, alive);
      const PruneResult pruned = prune(g, alive, alpha, 0.5);
      std::string h_exp = "-";
      if (pruned.survivors.count() >= 2) {
        const ExpansionBracket hb =
            expansion_bracket(g, pruned.survivors, ExpansionKind::Node, bopts);
        h_exp = std::to_string(hb.upper).substr(0, 6);
      }
      table.row()
          .cell(net.name)
          .cell(alpha, 3)
          .cell(name)
          .cell(frag.gamma, 3)
          .cell(std::size_t{pruned.survivors.count()})
          .cell(h_exp);
    }
  }
  table.print(std::cout);
  std::cout << "\nreading: with the same budget, the expander keeps a near-complete component\n"
               "at half its expansion (Theorem 2.1 regime), while targeted cuts hurt the mesh\n"
               "far more — its α·n fault tolerance is only Θ(√n) (Theorem 2.5 regime).\n";
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
