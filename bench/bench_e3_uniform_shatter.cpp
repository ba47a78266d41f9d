// E3 — Theorem 2.5: every graph of uniform expansion α(·) is shattered
// into sub-εn components by O(log(1/ε)/ε · α(n)·n) adversarial faults
// chosen by recursive bisection.
//
// Meshes are the canonical uniform-expansion family (α(n) ≈ d·n^{-1/d}).
// The bench runs the proof's own adversary and compares the faults spent
// to α(n)·n.
//
// Scenario-layer version: topology and adversary both resolve through the
// registries ("mesh" × "bisection"); no prune stage runs because the
// claim is about the raw shatter profile, so this driver is the fault
// injection plus analysis.  (The bisection rounds count of the old
// hand-wired driver is not part of the registry's uniform alive-mask
// contract and was dropped.)
#include "bench_common.hpp"

#include <cmath>

#include "analysis/fragmentation.hpp"
#include "api/registry.hpp"
#include "expansion/profile.hpp"
#include "expansion/uniform.hpp"
#include "topology/mesh.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto scale = cli.get_int_in_range<vid>("scale", 1, 0, 4096);

  bench::print_header("E3",
                      "Theorem 2.5 — recursive bisection shatters uniform-expansion graphs "
                      "with O(log(1/ε)/ε · α(n)·n) faults");

  const double epsilon = cli.get_double("epsilon", 0.1);

  Table table({"mesh", "n", "alpha(n)~", "alpha*n", "eps", "faults", "faults/(alpha*n)",
               "paper O(log(1/e)/e)", "largest", "eps*n", "gamma"});

  struct Case {
    std::string name;
    std::int64_t side;
    std::int64_t dims;
  };
  std::vector<Case> cases;
  cases.push_back({"2D 16x16", 16, 2});
  cases.push_back({"2D 24x24", 24, 2});
  if (scale >= 1) cases.push_back({"2D 32x32", 32, 2});
  cases.push_back({"3D 8x8x8", 8, 3});

  for (const Case& c : cases) {
    const Graph g = TopologyRegistry::instance().build(
        "mesh", Params().set("side", c.side).set("dims", c.dims), seed);
    const vid n = g.num_vertices();
    // Node expansion of the d-dim side-s mesh is ~ s^{d-1}/(s^d / 2) ≈ 2/s.
    const double alpha_n = 2.0 / static_cast<double>(c.side);

    const VertexSet alive = FaultModelRegistry::instance().build(
        "bisection", g, Params().set("epsilon", epsilon), seed);
    const vid faults = n - alive.count();
    const FragmentationProfile frag = fragmentation_profile(g, alive);

    const double alpha_times_n = alpha_n * n;
    table.row()
        .cell(c.name)
        .cell(std::size_t{n})
        .cell(alpha_n, 4)
        .cell(alpha_times_n, 4)
        .cell(epsilon, 3)
        .cell(std::size_t{faults})
        .cell(static_cast<double>(faults) / alpha_times_n, 3)
        .cell(std::log(1.0 / epsilon) / epsilon, 3)
        .cell(std::size_t{frag.largest})
        .cell(epsilon * n, 4)
        .cell(frag.gamma, 4);
  }
  bench::print_table(
      table,
      "paper prediction: faults/(α(n)·n) stays below the O(log(1/ε)/ε) constant across sizes\n"
      "and dimensions while every surviving component is < ε·n ('largest' < 'eps*n').");

  // Supporting evidence for the *hypothesis* of Theorem 2.5: meshes have
  // uniform expansion.  The exact isoperimetric profile of small meshes
  // follows the d-dimensional surface law b(s) ~ c·s^((d-1)/d), so every
  // size-m subgraph has expansion O(alpha(m)).
  Table profile_table({"mesh", "s", "min edge boundary b(s)", "surface law c*s^((d-1)/d)",
                       "b(s)/s (= alpha at s)"});
  struct ProfCase {
    std::string name;
    Mesh mesh;
    double d;
  };
  const ProfCase prof_cases[] = {
      {"2D 4x4", Mesh::cube(4, 2), 2.0},
      {"3D 2x2x4", Mesh({2, 2, 4}), 3.0},
  };
  for (const ProfCase& c : prof_cases) {
    const IsoperimetricProfile prof = isoperimetric_profile(c.mesh.graph());
    for (std::size_t s : {1UL, 2UL, 4UL, 8UL}) {
      if (s >= prof.edge_boundary.size()) continue;
      profile_table.row()
          .cell(c.name)
          .cell(s)
          .cell(prof.edge_boundary[s])
          .cell(2.0 * std::pow(static_cast<double>(s), (c.d - 1.0) / c.d), 3)
          .cell(static_cast<double>(prof.edge_boundary[s]) / static_cast<double>(s), 3);
    }
  }
  bench::print_table(profile_table,
                     "uniform expansion evidence: b(s) tracks the surface law, so α(m) decays\n"
                     "polynomially with subgraph size — the hypothesis Theorem 2.5 needs.");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
