// E4 — Theorem 3.1: random faults with probability Θ(α) = Θ(1/k) shatter
// the chain expander H(G, k): no linear-sized component survives.
//
// Campaign-port (DESIGN.md §8): every (k, p) cell is one campaign entry
// — topology "chain_expander" through the registry, fault "random",
// `trials` repetitions — and ALL cells run as one scenario×rep job list
// on the campaign pool.  The cells of one k share a single cached graph
// and engine pool (same scenario seed -> same build seed), so the whole
// sweep builds 3 graphs instead of one per cell.  γ(G^(p)) is the
// survivor fraction at a vanishing prune threshold (exact largest
// component), measured per repetition and averaged.
//
// The curve must collapse near p = 4·ln(δ)/k (the proof's threshold)
// while staying near 1 for p << 1/k.  --json=out.json archives the
// cells.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>

#include "api/campaign.hpp"
#include "util/stats.hpp"

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto scale = cli.get_int_in_range<vid>("scale", 1, 1, 4096);
  const int trials = cli.get_int_in_range<int>("trials", 8, 1, 100000);
  const int threads = bench::threads_flag(cli);

  bench::print_header("E4",
                      "Theorem 3.1 — fault probability Θ(1/k) shatters H(G,k): random faults "
                      "can be as catastrophic as adversarial ones (campaign-driven)");

  const vid delta = 4;
  const std::int64_t base_n = 32 * static_cast<std::int64_t>(scale);

  struct Cell {
    vid k;
    double p;
    std::string regime;
  };
  std::vector<Cell> cells;
  Campaign campaign;
  campaign.name = "e4-random-chain";
  for (const vid k : {4U, 8U, 16U}) {
    const double threshold = 4.0 * std::log(static_cast<double>(delta)) / k;
    const std::vector<std::pair<double, std::string>> probes{
        {0.05 / k, "p << 1/k (survive)"},
        {0.2 / k, "below"},
        {1.0 / k, "p = 1/k"},
        {std::min(threshold, 0.9), "paper threshold 4lnδ/k"},
        {std::min(2.0 * threshold, 0.95), "above"},
    };
    for (const auto& [p, regime] : probes) {
      Scenario s;
      s.name = "k=" + std::to_string(k) + " p=" + std::to_string(p).substr(0, 6);
      s.topology = {"chain_expander", Params()
                                          .set("base_n", base_n)
                                          .set("base_degree", std::int64_t{delta})
                                          .set("k", static_cast<std::int64_t>(k))};
      s.fault = {"random", Params().set("p", p)};
      s.prune.kind = ExpansionKind::Node;
      s.prune.alpha = 1e-9;  // vanishing threshold: survivors == largest component
      s.repetitions = trials;
      // One seed per k: every cell of that k shares the SAME cached base
      // graph (and engine pool); repetitions draw the per-rep fault seeds.
      s.seed = seed + k;
      campaign.entries.push_back({std::move(s), std::nullopt});
      cells.push_back({k, p, regime});
    }
  }

  Timer timer;
  CampaignRunner runner(std::move(campaign));
  const CampaignReport report = runner.run(threads);
  const double wall_ms = timer.millis();

  bench::JsonReport json("bench_e4_random_chain");
  json.top()
      .put("base_n", base_n)
      .put("trials", trials)
      .put("threads", threads)
      .put("millis", wall_ms)
      .put("graph_builds", report.cache.graph_builds);

  Table table({"k", "N", "fault p", "p*k", "mean gamma", "ci95", "regime"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ScenarioReport& sr = report.scenarios[c];
    RunningStats gamma;
    for (const ScenarioRun& r : sr.runs) gamma.add(r.survivor_fraction(sr.n));
    table.row()
        .cell(std::size_t{cells[c].k})
        .cell(std::size_t{sr.n})
        .cell(cells[c].p, 4)
        .cell(cells[c].p * cells[c].k, 3)
        .cell(gamma.mean(), 4)
        .cell(gamma.ci95_halfwidth(), 2)
        .cell(cells[c].regime);
    json.record("cells")
        .put("k", static_cast<std::uint64_t>(cells[c].k))
        .put("n", static_cast<std::uint64_t>(sr.n))
        .put("p", cells[c].p)
        .put("mean_gamma", gamma.mean())
        .put("ci95", gamma.ci95_halfwidth())
        .put("regime", cells[c].regime);
  }
  bench::print_table(
      table,
      "paper prediction: gamma ≈ 1 for p << 1/k and gamma -> 0 (sublinear largest component)\n"
      "once p reaches the Θ(1/k) threshold — the collapse point scales with 1/k, i.e. with\n"
      "the expansion α = Θ(1/k) of H (Theorem 3.1).  One campaign, " +
          std::to_string(report.total_engine_stats().runs) + " jobs, " +
          std::to_string(report.cache.graph_builds) + " graphs built.");

  if (cli.has("json")) json.write(bench::json_path(cli, "bench_e4_random_chain.json"));
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
