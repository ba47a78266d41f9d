// E1 — Theorem 2.1: with f adversarial node faults and k·f/α <= n/4,
// Prune(1 - 1/k) returns H with |H| >= n - k·f/α and node expansion
// >= (1 - 1/k)·α.
//
// Scenario-layer version: each family is a Scenario (topology by registry
// name), the attack portfolio is the fault-model registry, and one
// ScenarioRunner per family runs every (k, attack) cell through
// run_isolated — the runner also measures the honest α (the
// constructive upper bound of the fault-free bracket) that the theorem's
// budget is computed from.
#include "bench_common.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "api/runner.hpp"
#include "prune/verify.hpp"

namespace fne {
namespace {

struct Family {
  std::string name;
  TopologySpec topology;
};

void run(const Family& family, double k, std::uint64_t seed, Table& table) {
  Scenario scenario;
  scenario.name = family.name;
  scenario.topology = family.topology;
  scenario.prune.kind = ExpansionKind::Node;
  scenario.prune.epsilon = 1.0 - 1.0 / k;
  scenario.metrics.verify_trace = true;
  scenario.metrics.expansion = true;
  scenario.metrics.bracket_exact_limit = 16;
  scenario.seed = seed;

  ScenarioRunner runner(std::move(scenario));
  const vid n = runner.graph().num_vertices();
  // α must be a value the graph *actually has*: the runner measured the
  // constructive upper bound (a real cut) — using a larger α would make
  // the theorem's precondition easier but its conclusion unverifiable.
  const double alpha = runner.alpha();
  const vid f_max = static_cast<vid>(alpha * n / (4.0 * k));
  const vid f = std::max<vid>(1, f_max / 2);  // half the admissible budget

  const std::vector<std::pair<std::string, Params>> attacks{
      {"random_exact", Params().set("budget", std::int64_t{f})},
      {"high_degree", Params().set("budget", std::int64_t{f})},
      {"sweep_cut", Params().set("budget", std::int64_t{f})},
  };
  for (const auto& [attack_name, params] : attacks) {
    const ScenarioRun result = runner.run_isolated({attack_name, params}, 0);
    const Theorem21Check check = check_theorem21_size(n, alpha, result.faults, k,
                                                      result.prune.survivors.count());
    std::string h_expansion = "-";
    if (result.expansion.has_value()) {
      h_expansion = std::to_string(result.expansion->upper).substr(0, 6);
    }
    table.row()
        .cell(family.name)
        .cell(std::size_t{n})
        .cell(alpha, 3)
        .cell(k, 2)
        .cell(std::size_t{result.faults})
        .cell(attack_name)
        .cell(std::size_t{result.prune.survivors.count()})
        .cell(check.size_bound, 4)
        .cell(bench::yesno(check.size_ok && check.precondition_ok))
        .cell(result.threshold, 3)
        .cell(h_expansion)
        .cell(bench::yesno(result.trace.has_value() && result.trace->valid));
  }
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto scale = cli.get_int_in_range<std::int64_t>("scale", 1, 1, 4096);

  bench::print_header("E1",
                      "Theorem 2.1 — Prune keeps |H| >= n - k·f/α with expansion (1-1/k)·α "
                      "under any adversarial fault set with k·f/α <= n/4");

  Table table({"family", "n", "alpha", "k", "f", "attack", "|H|", "bound n-kf/a", "size ok",
               "thr (1-1/k)a", "exp(H) upper", "trace ok"});
  std::vector<Family> families;
  families.push_back(
      {"rand-4-reg",
       {"random_regular", Params().set("n", 256 * scale).set("degree", std::int64_t{4})}});
  families.push_back(
      {"rand-6-reg",
       {"random_regular", Params().set("n", 256 * scale).set("degree", std::int64_t{6})}});
  families.push_back({"hypercube-8", {"hypercube", Params().set("dims", std::int64_t{8})}});
  for (const Family& family : families) {
    for (double k : {2.0, 4.0}) run(family, k, seed, table);
  }
  bench::print_table(
      table,
      "paper prediction: 'size ok' and 'trace ok' = yes everywhere, and exp(H) upper >= thr\n"
      "(exp(H) is the constructive upper bound of H's expansion bracket; thr = (1-1/k)·α).");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
