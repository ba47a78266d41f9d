// E7 — §1.1 survey table: SITE-percolation thresholds of the classical
// families, reproduced through the Campaign API (DESIGN.md §8).
//
// Campaign-port of the old bisection driver, and the dogfooding example
// for the batch layer: every family is a set of campaign entries (one
// per Monte-Carlo trial) sweeping the fault probability, all
// scenario×point jobs scheduled on one ExecutorPool over the shared
// EngineCache.  The prune stage runs at a vanishing threshold
// (alpha ~ 0), where the cull loop reduces to exact largest-component
// extraction — so survivor_fraction(p) IS the percolation functional
// γ(G(p)), and the threshold is read off the sweep where the mean γ
// crosses the target fraction.
//
// Site-percolation literature values (survival probability p_surv):
//   2-D mesh                  p* = 0.5927 (site; Kesten's 1/2 is bond)
//   random 4-regular          p* ~ 1/(d-1) = 1/3 (locally tree-like)
//   butterfly                 0.337 < p* < 0.436 (Karlin–Nelson–Tamaki)
//   hypercube Q_d             p* = Θ(1/d) (AKS give 1/d for bond)
//   complete K_n              γ(s) = s exactly: γ crosses the target AT
//                             the target (method sanity row)
//
// Finite-size estimates drift above the asymptotic threshold; the table
// reports the estimate next to the literature value.  --json=out.json
// archives the per-family estimates and the full γ curves.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>

#include "api/campaign.hpp"
#include "util/stats.hpp"

namespace fne {
namespace {

struct Family {
  std::string name;
  TopologySpec topology;
  std::string literature;
};

/// Linear interpolation of the survival probability where the mean-γ
/// curve (indexed by FAULT probability, ascending) crosses `target`.
[[nodiscard]] double crossing_survival(const std::vector<double>& fault_ps,
                                       const std::vector<double>& mean_gamma, double target) {
  for (std::size_t i = 0; i < mean_gamma.size(); ++i) {
    if (mean_gamma[i] <= target) {
      if (i == 0) return 1.0 - fault_ps.front();
      const double g_hi = mean_gamma[i - 1];  // gamma above target
      const double g_lo = mean_gamma[i];
      const double t = g_hi == g_lo ? 0.0 : (g_hi - target) / (g_hi - g_lo);
      const double p_fault = fault_ps[i - 1] + t * (fault_ps[i] - fault_ps[i - 1]);
      return 1.0 - p_fault;
    }
  }
  return 1.0 - fault_ps.back();  // never crossed: threshold below the grid
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const int trials = cli.get_int_in_range<int>("trials", 3, 1, 100000);
  const int threads = bench::threads_flag(cli);
  const double gamma_target = cli.get_double("gamma-target", 0.10);

  bench::print_header("E7",
                      "§1.1 — site-percolation thresholds of the classical families, via "
                      "campaign fault sweeps (γ = survivor fraction at vanishing prune "
                      "threshold)");

  const std::vector<Family> families{
      {"complete K_128", {"complete", Params().set("n", std::int64_t{128})}, "γ(s)=s (sanity)"},
      {"random 4-regular",
       {"random_regular", Params().set("n", std::int64_t{1024}).set("degree", std::int64_t{4})},
       "~1/(d-1) = 0.33"},
      {"mesh 32x32", {"mesh", Params().set("side", std::int64_t{32})}, "0.593 (site)"},
      {"mesh 48x48", {"mesh", Params().set("side", std::int64_t{48})}, "0.593 (site)"},
      {"hypercube Q_10", {"hypercube", Params().set("dims", std::int64_t{10})}, "Θ(1/d), bond 0.1"},
      {"butterfly d=7", {"butterfly", Params().set("dims", std::int64_t{7})}, "(0.337, 0.436) KNT"},
  };

  // Fault-probability grid (survival descending 0.95 .. 0.10).
  std::vector<double> fault_ps;
  for (double p = 0.05; p < 0.91; p += 0.05) fault_ps.push_back(p);

  // One campaign: |families| x trials entries, each sweeping the full
  // grid.  Trials shift the scenario seed, so every trial draws fresh
  // fault masks; unseeded families still share ONE graph and engine pool
  // through the cache.
  Campaign campaign;
  campaign.name = "e7-percolation";
  for (std::size_t f = 0; f < families.size(); ++f) {
    for (int t = 0; t < trials; ++t) {
      Scenario s;
      s.name = families[f].name + " trial " + std::to_string(t);
      s.topology = families[f].topology;
      s.fault = {"random", Params().set("p", 0.5)};
      s.prune.kind = ExpansionKind::Node;
      s.prune.alpha = 1e-9;  // vanishing threshold: prune == largest component
      s.seed = seed + 1000 * f + static_cast<std::uint64_t>(t);
      campaign.entries.push_back({std::move(s), SweepSpec{"p", fault_ps}});
    }
  }

  Timer timer;
  CampaignRunner runner(std::move(campaign));
  const CampaignReport report = runner.run(threads);
  const double wall_ms = timer.millis();

  bench::JsonReport json("bench_e7_percolation_thresholds");
  json.top()
      .put("trials", trials)
      .put("threads", threads)
      .put("gamma_target", gamma_target)
      .put("jobs", static_cast<std::uint64_t>(report.total_engine_stats().runs))
      .put("millis", wall_ms);

  Table table({"family", "n", "estimated p* (site)", "literature p*", "gamma@p*"});
  for (std::size_t f = 0; f < families.size(); ++f) {
    // Fold the trial entries of this family into one mean-γ curve.
    std::vector<RunningStats> gamma(fault_ps.size());
    vid n = 0;
    for (int t = 0; t < trials; ++t) {
      const ScenarioReport& sr = report.scenarios[f * static_cast<std::size_t>(trials) +
                                                  static_cast<std::size_t>(t)];
      n = sr.n;
      for (std::size_t i = 0; i < fault_ps.size(); ++i) {
        gamma[i].add(sr.runs[i].survivor_fraction(sr.n));
      }
    }
    std::vector<double> mean(fault_ps.size());
    for (std::size_t i = 0; i < fault_ps.size(); ++i) mean[i] = gamma[i].mean();
    const double p_star = crossing_survival(fault_ps, mean, gamma_target);

    // γ at the grid point nearest the estimate.
    const double fault_at_star = 1.0 - p_star;
    std::size_t nearest = 0;
    for (std::size_t i = 1; i < fault_ps.size(); ++i) {
      if (std::abs(fault_ps[i] - fault_at_star) < std::abs(fault_ps[nearest] - fault_at_star)) {
        nearest = i;
      }
    }
    table.row()
        .cell(families[f].name)
        .cell(std::size_t{n})
        .cell(p_star, 4)
        .cell(families[f].literature)
        .cell(mean[nearest], 3);

    auto& record = json.record("families");
    record.put("family", families[f].name)
        .put("n", static_cast<std::uint64_t>(n))
        .put("p_star_site", p_star)
        .put("literature", families[f].literature);
    std::vector<double> survival(fault_ps.size());
    for (std::size_t i = 0; i < fault_ps.size(); ++i) survival[i] = 1.0 - fault_ps[i];
    record.put_numbers("survival_grid", survival).put_numbers("mean_gamma", mean);
  }

  bench::print_table(
      table,
      "paper prediction (§1.1): the family ORDERING matches the literature\n"
      "(complete << random-d << mesh/butterfly); absolute estimates carry the finite-size\n"
      "bias of the γ-target definition (meshes read low: 10% of n survives slightly below\n"
      "the true site threshold at these sizes).  All " +
          std::to_string(report.total_engine_stats().runs) +
          " sweep jobs ran on one campaign pool (" + std::to_string(threads) + " threads).");

  if (cli.has("json")) {
    json.write(bench::json_path(cli, "bench_e7_percolation_thresholds.json"));
  }
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
