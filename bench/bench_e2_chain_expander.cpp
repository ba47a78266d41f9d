// E2 — Theorem 2.3 + Claim 2.4: the chain-replaced expander H(G, k) has
// expansion Θ(1/k), and failing the δn/2 chain centers (= Θ(α·N) faults,
// N = |H|) shatters it into sublinear components.
#include "bench_common.hpp"

#include "analysis/fragmentation.hpp"
#include "expansion/bracket.hpp"
#include "faults/adversary.hpp"
#include "topology/chain_expander.hpp"
#include "topology/random_graphs.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto scale = cli.get_int_in_range<vid>("scale", 1, 1, 4096);

  bench::print_header("E2",
                      "Theorem 2.3 / Claim 2.4 — H(G,k) has expansion Θ(1/k); c·α·N center "
                      "faults break it into sublinear components");

  Table table({"delta", "k", "|H| = N", "exp upper", "claim 2/k", "exp lower", "faults f",
               "f/N", "alpha*N/N = Θ(1/k)", "largest comp", "comp bound 1+δ(k-1)", "gamma"});

  for (vid delta : {4U, 6U}) {
    const Graph base = random_regular(48 * scale, delta, seed + delta);
    for (vid k : {2U, 4U, 8U, 16U}) {
      const ChainExpander h = chain_replace(base, k);
      const vid total = h.graph.num_vertices();

      BracketOptions bopts;
      bopts.exact_limit = 14;
      bopts.seed = seed;
      const ExpansionBracket bracket = expansion_bracket(h.graph, ExpansionKind::Node, bopts);

      const AttackResult attack = chain_center_attack(h);
      const VertexSet alive = VertexSet::full(total) - attack.faults;
      const FragmentationProfile frag = fragmentation_profile(h.graph, alive);

      table.row()
          .cell(std::size_t{delta})
          .cell(std::size_t{k})
          .cell(std::size_t{total})
          .cell(bracket.upper, 4)
          .cell(2.0 / k, 4)
          .cell(bracket.lower, 4)
          .cell(std::size_t{attack.budget_used})
          .cell(static_cast<double>(attack.budget_used) / total, 4)
          .cell(1.0 / k, 4)
          .cell(std::size_t{frag.largest})
          .cell(std::size_t{1 + delta * (k - 1)})
          .cell(frag.gamma, 4);
    }
  }
  bench::print_table(
      table,
      "paper prediction: 'exp upper' tracks 2/k (Claim 2.4); fault fraction f/N tracks Θ(1/k);\n"
      "largest component <= 1 + δ(k-1) (sublinear) and gamma -> 0 as n grows (Theorem 2.3).");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
