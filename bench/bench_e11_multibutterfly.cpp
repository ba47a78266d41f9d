// E11 — §1.1 (Leighton–Maggs / Upfal context): the multibutterfly keeps
// n - O(f) inputs and outputs connected under ANY f node faults, while
// the plain butterfly is far more fragile against targeted faults.
//
// We run the attack portfolio with equal budgets on both networks and
// report the I/O survival census.
#include "bench_common.hpp"

#include "faults/adversary.hpp"
#include "topology/butterfly.hpp"
#include "topology/multibutterfly.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto dims = cli.get_int_in_range<vid>("dims", 7, 1, 20);

  bench::print_header("E11",
                      "§1.1 — multibutterfly keeps n - O(f) inputs/outputs under adversarial "
                      "faults; the plain butterfly does not");

  const Butterfly bf = butterfly(dims);
  const Multibutterfly mb = multibutterfly(dims, 2, seed);
  const vid n_inputs = vid{1} << dims;

  VertexSet bf_inputs(bf.graph.num_vertices());
  VertexSet bf_outputs(bf.graph.num_vertices());
  for (vid r = 0; r < bf.rows; ++r) {
    bf_inputs.set(bf.id_of(0, r));
    bf_outputs.set(bf.id_of(bf.levels - 1, r));
  }

  Table table({"network", "n_io", "attack", "f", "inputs alive", "outputs alive",
               "inputs lost / f", "paper"});

  auto run = [&](const std::string& name, const Graph& g, const VertexSet& inputs,
                 const VertexSet& outputs) {
    for (vid f : {n_inputs / 16, n_inputs / 8, n_inputs / 4}) {
      struct NamedAttack {
        std::string name;
        AttackResult attack;
      };
      const NamedAttack attacks[] = {
          {"random", random_attack(g, f, seed)},
          {"high-degree", high_degree_attack(g, f)},
          {"separator", separator_attack(g, f, seed)},
      };
      for (const auto& [attack_name, attack] : attacks) {
        const VertexSet alive = VertexSet::full(g.num_vertices()) - attack.faults;
        const IoConnectivity io = io_connectivity(g, alive, inputs, outputs);
        const vid lost = n_inputs - io.inputs_connected;
        table.row()
            .cell(name)
            .cell(std::size_t{n_inputs})
            .cell(attack_name)
            .cell(std::size_t{attack.budget_used})
            .cell(std::size_t{io.inputs_connected})
            .cell(std::size_t{io.outputs_connected})
            .cell(attack.budget_used > 0
                      ? static_cast<double>(lost) / attack.budget_used
                      : 0.0,
                  3)
            .cell(name == "multibutterfly" ? "lost = O(f)" : "(fragile)");
      }
    }
  };
  run("butterfly", bf.graph, bf_inputs, bf_outputs);
  run("multibutterfly", mb.graph, mb.inputs(), mb.outputs());

  bench::print_table(
      table,
      "paper prediction (§1.1, Leighton–Maggs): for the multibutterfly 'inputs lost / f' is a\n"
      "small constant for EVERY attack; the plain butterfly's unique-path structure makes it\n"
      "much more fragile under targeted (separator/high-degree) faults of the same budget.");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
