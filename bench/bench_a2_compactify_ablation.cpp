// A2 — ablation: Lemma 3.3 compactification on/off inside Prune2.
//
// Without compactification the culled sets are still valid cuts, but they
// need not be compact — Claim 3.5 ("every maximal culled region is
// compact") is what the probabilistic argument of Theorem 3.4 counts, so
// turning it off breaks the *proof structure* even when the output looks
// similar.  The table quantifies both effects.
#include "bench_common.hpp"

#include "faults/fault_model.hpp"
#include "prune/prune2.hpp"
#include "prune/verify.hpp"
#include "topology/mesh.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();

  bench::print_header("A2", "ablation — Prune2 with and without Lemma 3.3 compactification");

  Table table({"mesh", "fault p", "compactify", "|H|", "iters", "culled", "trace ok",
               "all culled compact"});

  const double alpha_e = 32.0 / 512.0;
  const Mesh mesh = Mesh::cube(32, 2);
  const Graph& g = mesh.graph();
  const double eps = 1.0 / 8.0;

  // Fault rates high enough to actually fragment the grid fringe (site
  // survival threshold of the 2-D lattice is ~0.593, i.e. p ~ 0.407).
  for (double p : {0.15, 0.30, 0.40}) {
    const VertexSet alive = random_node_faults(g, p, seed + static_cast<vid>(1000 * p));
    for (bool compact_on : {true, false}) {
      PruneEngineOptions opts;
      opts.compactify_enabled = compact_on;
      opts.finder.seed = seed;
      const PruneResult result = prune2(g, alive, alpha_e, eps, opts);
      const TraceVerification trace = verify_prune_trace(
          g, alive, result, ExpansionKind::Edge, alpha_e * eps, /*require_compact=*/false);
      const TraceVerification compact = verify_prune_trace(
          g, alive, result, ExpansionKind::Edge, alpha_e * eps, /*require_compact=*/true);
      table.row()
          .cell(mesh.graph().summary())
          .cell(p, 3)
          .cell(compact_on ? "on" : "off")
          .cell(std::size_t{result.survivors.count()})
          .cell(static_cast<long long>(result.iterations))
          .cell(std::size_t{result.total_culled})
          .cell(bench::yesno(trace.valid))
          .cell(bench::yesno(compact.valid));
    }
  }
  bench::print_table(
      table,
      "reading: with compactification ON every culled region is compact (Claim 3.5's invariant\n"
      "holds by construction); OFF may still produce a large H, but the compact-replay column\n"
      "can fail — the Theorem 3.4 counting argument no longer covers such runs.");
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
