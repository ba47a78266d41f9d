// S1 — supplementary: the §1.3 application claims.
//
// "Research on load balancing has shown that if the expansion basically
// stays the same, the ability of a network to balance load basically
// stays the same", and "one can still achieve almost everywhere
// agreement".  We measure both applications directly on pruned faulty
// networks against their fault-free baselines.
#include "bench_common.hpp"

#include "analysis/agreement.hpp"
#include "analysis/load_balance.hpp"
#include "analysis/routing.hpp"
#include "faults/fault_model.hpp"
#include "prune/prune.hpp"
#include "prune/prune2.hpp"
#include "topology/mesh.hpp"
#include "topology/random_graphs.hpp"
#include "util/rng.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();

  bench::print_header("S1", "§1.3 applications — load balancing and almost-everywhere "
                            "agreement survive pruning");

  // --- load balancing -----------------------------------------------------
  Table lb({"network", "n", "fault p", "|H|/n", "rounds (fault-free)", "rounds (pruned H)",
            "ratio"});
  struct Case {
    std::string name;
    Graph graph;
    double alpha;
    bool edge_mode;
  };
  const Case cases[] = {
      {"mesh 16x16", Mesh::cube(16, 2).graph(), 2.0 / 16.0, true},
      {"rand 6-reg n=256", random_regular(256, 6, seed), 0.8, false},
  };
  for (const Case& c : cases) {
    const Graph& g = c.graph;
    const VertexSet all = VertexSet::full(g.num_vertices());
    DiffusionOptions dopts;
    dopts.tolerance = 0.05;
    const DiffusionResult clean =
        diffuse_point_load(g, all, 0, static_cast<double>(g.num_vertices()), dopts);
    for (double p : {0.03, 0.08}) {
      const VertexSet alive = random_node_faults(g, p, seed + static_cast<vid>(p * 100));
      const double eps = 1.0 / (2.0 * g.max_degree());
      const PruneResult pruned = c.edge_mode ? prune2(g, alive, c.alpha, eps)
                                             : prune(g, alive, c.alpha, 0.5);
      if (pruned.survivors.count() < 2) continue;
      const DiffusionResult faulty =
          diffuse_point_load(g, pruned.survivors, pruned.survivors.first(),
                             static_cast<double>(pruned.survivors.count()), dopts);
      lb.row()
          .cell(c.name)
          .cell(std::size_t{g.num_vertices()})
          .cell(p, 3)
          .cell(static_cast<double>(pruned.survivors.count()) / g.num_vertices(), 3)
          .cell(static_cast<long long>(clean.rounds))
          .cell(static_cast<long long>(faulty.rounds))
          .cell(clean.rounds > 0 ? static_cast<double>(faulty.rounds) / clean.rounds : 0.0, 3);
    }
  }
  bench::print_table(lb,
                     "paper prediction (§1.3, citing Ghosh et al.): rounds-to-balance on the\n"
                     "pruned component stays within a small constant of the fault-free count\n"
                     "(diffusion rate is governed by λ2, which pruning preserves).");

  // --- almost-everywhere agreement ----------------------------------------
  Table ag({"network", "n", "byzantine", "fault p", "agreeing honest fraction", "rounds"});
  for (const Case& c : cases) {
    const Graph& g = c.graph;
    Rng rng(seed + 1);
    for (double p : {0.0, 0.05}) {
      const VertexSet alive =
          p == 0.0 ? VertexSet::full(g.num_vertices())
                   : random_node_faults(g, p, seed + 13);
      const PruneResult pruned = c.edge_mode
                                     ? prune2(g, alive, c.alpha, 1.0 / (2.0 * g.max_degree()))
                                     : prune(g, alive, c.alpha, 0.5);
      if (pruned.survivors.count() < 8) continue;
      // ~2% Byzantine among survivors.
      const std::vector<vid> verts = pruned.survivors.to_vector();
      VertexSet byz(g.num_vertices());
      const vid byz_count = std::max<vid>(1, static_cast<vid>(verts.size()) / 50);
      for (vid i : rng.sample_without_replacement(static_cast<vid>(verts.size()), byz_count)) {
        byz.set(verts[i]);
      }
      AgreementOptions aopts;
      aopts.seed = seed + 2;
      const AgreementResult r =
          iterated_majority_agreement(g, pruned.survivors, byz, aopts);
      ag.row()
          .cell(c.name)
          .cell(std::size_t{pruned.survivors.count()})
          .cell(std::size_t{byz_count})
          .cell(p, 3)
          .cell(r.agreement_fraction, 4)
          .cell(static_cast<long long>(r.rounds));
    }
  }
  bench::print_table(ag,
                     "paper prediction (§1.3, citing Upfal / Ben-Or–Ron): almost-everywhere\n"
                     "agreement — all but a small fraction of honest survivors settle on the\n"
                     "initial majority bit, with or without pruning-level faults.");

  // --- permutation routing -------------------------------------------------
  Table rt({"network", "n", "fault p", "|H|/n", "congestion (fault-free)",
            "congestion (pruned H)", "ratio"});
  for (const Case& c : cases) {
    const Graph& g = c.graph;
    const VertexSet all = VertexSet::full(g.num_vertices());
    const RoutingResult clean = route_random_permutation(g, all, seed + 31);
    for (double p : {0.03, 0.08}) {
      const VertexSet alive = random_node_faults(g, p, seed + static_cast<vid>(p * 100));
      const double eps = 1.0 / (2.0 * g.max_degree());
      const PruneResult pruned = c.edge_mode ? prune2(g, alive, c.alpha, eps)
                                             : prune(g, alive, c.alpha, 0.5);
      if (pruned.survivors.count() < 2) continue;
      const RoutingResult faulty = route_random_permutation(g, pruned.survivors, seed + 31);
      rt.row()
          .cell(c.name)
          .cell(std::size_t{g.num_vertices()})
          .cell(p, 3)
          .cell(static_cast<double>(pruned.survivors.count()) / g.num_vertices(), 3)
          .cell(clean.max_edge_load)
          .cell(faulty.max_edge_load)
          .cell(clean.max_edge_load > 0
                    ? static_cast<double>(faulty.max_edge_load) / clean.max_edge_load
                    : 0.0,
                3);
    }
  }
  bench::print_table(rt,
                     "paper prediction (§1.3, citing Scheideler): permutation-routing congestion\n"
                     "scales as ~1/α_e; since pruning preserves the expansion, congestion on H\n"
                     "stays within a small constant of the fault-free value.");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
