// E8 — §4 open problem: the paper conjectures that butterfly,
// shuffle-exchange and de Bruijn networks have span O(1).
//
// We produce sampled span estimates across sizes: a flat trend in n is
// evidence for the conjecture (a growing trend against).  The hypercube
// and CAN overlay are included for context.
//
// Campaign port (DESIGN.md §9): every family is a registry topology and
// the estimate is the 'span_estimate' MetricsRegistry entry, so the whole
// experiment is one campaign over the engine cache — the same study that
// campaigns/e8_span_conjecture.json runs from the CLI.
//
// Flags: --samples=N (default 12, per size fraction), --seed=S,
// --threads=N, --json=out.json (the aggregated campaign report).
#include "bench_common.hpp"

#include "api/campaign.hpp"
#include "api/scenario.hpp"

namespace fne {
namespace {

[[nodiscard]] CampaignEntry probe_entry(const std::string& label, const std::string& topology,
                                        Params params, double alpha, int samples,
                                        std::uint64_t seed) {
  Scenario s;
  s.name = label;
  s.topology = {topology, std::move(params)};
  s.fault = {"random", Params{{"p", "0"}}};  // span is a fault-free quantity
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = alpha;  // explicit: skip the bracket measurement, prune is a no-op here
  s.metrics.fragmentation = false;
  s.metrics.requests = {
      {"span_estimate", Params{}.set("samples", static_cast<std::int64_t>(samples))}};
  s.seed = seed;
  return {std::move(s), std::nullopt};
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const int samples = cli.get_int_in_range<int>("samples", 12, 1, 1000000);
  const int threads = bench::threads_flag(cli);

  bench::print_header("E8", "§4 conjecture — butterfly / shuffle-exchange / de Bruijn "
                            "have span O(1)");

  Campaign campaign;
  campaign.name = "e8_span_conjecture";
  const auto dim_params = [](vid d) {
    return Params{}.set("dims", static_cast<std::int64_t>(d));
  };
  for (vid d : {4U, 5U, 6U}) {
    campaign.entries.push_back(probe_entry("butterfly d=" + std::to_string(d), "butterfly",
                                           dim_params(d), 0.2, samples, seed));
  }
  for (vid d : {5U, 7U, 9U}) {
    campaign.entries.push_back(probe_entry("debruijn d=" + std::to_string(d), "debruijn",
                                           dim_params(d), 0.2, samples, seed));
  }
  for (vid d : {5U, 7U, 9U}) {
    campaign.entries.push_back(probe_entry("shuffle-exch d=" + std::to_string(d),
                                           "shuffle_exchange", dim_params(d), 0.2, samples,
                                           seed));
  }
  for (vid d : {5U, 7U, 9U}) {
    campaign.entries.push_back(probe_entry("hypercube d=" + std::to_string(d), "hypercube",
                                           dim_params(d), 0.5, samples, seed));
  }
  for (vid dims : {2U, 3U}) {
    campaign.entries.push_back(probe_entry(
        "CAN " + std::to_string(dims) + "D 256 peers", "can",
        Params{}.set("peers", std::int64_t{256}).set("dims", static_cast<std::int64_t>(dims)),
        0.1, samples, seed));
  }

  CampaignRunner runner(std::move(campaign));
  const CampaignReport report = runner.run(threads);

  Table table({"family", "n", "sampled sets", "span estimate", "steiner exact?"});
  for (const ScenarioReport& sr : report.scenarios) {
    const JsonValue payload = JsonValue::parse(sr.runs.at(0).metrics.at(0).payload);
    table.row()
        .cell(sr.scenario.name)
        .cell(std::size_t{sr.n})
        .cell(static_cast<std::uint64_t>(payload.at("sets_examined").as_int()))
        .cell(payload.at("span").as_number(), 4)
        .cell(bench::yesno(payload.at("exact").as_bool()));
  }
  bench::print_table(
      table,
      "paper conjecture (§4): the estimate stays O(1) (flat in n) for the three conjectured\n"
      "families.  Estimates are lower bounds on σ when Steiner trees are exact; with\n"
      "approximate trees each ratio can overshoot by at most 2x (see span/span.hpp).");

  if (cli.has("json")) {
    bench::write_json_text(bench::json_path(cli, "bench_e8_span_conjecture.json"),
                           report.to_json());
  }
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
