// E6 — Theorem 3.6 + Lemma 3.7: the d-dimensional mesh has span 2.
//
// Three measurements, all produced by the campaign pipeline (this bench
// is the dogfooding port of DESIGN.md §9 — every mesh goes through
// TopologyRegistry/mesh_for() and the 'mesh_span' MetricsRegistry entry;
// no hand-built coordinate objects):
//  (a) exact span of small meshes (exhaustive compact sets + exact Steiner);
//  (b) the constructive virtual-edge tree on sampled compact sets of larger
//      meshes: ratio <= 2 always (this is the theorem's own construction);
//  (c) Lemma 3.7 connectivity of (B, Ev) on every sampled set.
//
// Flags: --samples=N (default 40, sampled sets per big mesh), --seed=S,
// --threads=N, --json=out.json (the aggregated campaign report).
#include "bench_common.hpp"

#include "api/campaign.hpp"
#include "api/scenario.hpp"

namespace fne {
namespace {

/// One campaign entry probing Theorem 3.6 on a side^dims mesh.
[[nodiscard]] CampaignEntry mesh_entry(const std::string& name, vid side, vid dims,
                                       int samples, std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.topology = {"mesh", Params{}
                            .set("side", static_cast<std::int64_t>(side))
                            .set("dims", static_cast<std::int64_t>(dims))};
  s.fault = {"random", Params{{"p", "0"}}};  // the theorem is about the fault-free mesh
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 2.0 / static_cast<double>(side);
  s.metrics.fragmentation = false;
  s.metrics.requests = {
      {"mesh_span", Params{}.set("samples", static_cast<std::int64_t>(samples))}};
  s.seed = seed;
  return {std::move(s), std::nullopt};
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const int samples = cli.get_int_in_range<int>("samples", 40, 1, 1000000);
  const int threads = bench::threads_flag(cli);

  bench::print_header("E6", "Theorem 3.6 — the d-dimensional mesh has span 2 "
                            "(Lemma 3.7: virtual boundary graphs are connected)");

  // Small meshes get the exhaustive exact span (the metric turns it on
  // automatically at n <= 24); big meshes get the sampled constructive
  // tree.  Everything is one campaign over the engine cache.
  Campaign campaign;
  campaign.name = "e6_mesh_span";
  struct Case {
    const char* name;
    vid side, dims;
    bool big;
  };
  const Case cases[] = {
      {"1D path-8", 8, 1, false},  {"2D 3x3", 3, 2, false},      {"2D 4x4", 4, 2, false},
      {"3D 2x2x2", 2, 3, false},   {"2D 16x16", 16, 2, true},    {"3D 6x6x6", 6, 3, true},
      {"4D 4x4x4x4", 4, 4, true},
  };
  for (const Case& c : cases) {
    campaign.entries.push_back(mesh_entry(c.name, c.side, c.dims, c.big ? samples : 8, seed));
  }

  CampaignRunner runner(std::move(campaign));
  const CampaignReport report = runner.run(threads);

  Table exact_table({"mesh", "n", "compact sets", "exact span", "paper bound", "ok"});
  Table big_table({"mesh", "n", "sampled sets", "lemma 3.7 ok", "max tree ratio",
                   "paper bound", "max |B|"});
  for (std::size_t i = 0; i < report.scenarios.size(); ++i) {
    const ScenarioReport& sr = report.scenarios[i];
    const JsonValue payload = JsonValue::parse(sr.runs.at(0).metrics.at(0).payload);
    if (!cases[i].big) {
      exact_table.row()
          .cell(sr.scenario.name)
          .cell(std::size_t{sr.n})
          .cell(static_cast<std::uint64_t>(payload.at("exact_sets").as_int()))
          .cell(payload.at("exact_span").as_number(), 4)
          .cell(2.0, 2)
          .cell(bench::yesno(payload.at("exact_bound_ok").as_bool()));
    } else {
      const auto produced = payload.at("sampled_sets").as_int();
      big_table.row()
          .cell(sr.scenario.name)
          .cell(std::size_t{sr.n})
          .cell(static_cast<long long>(produced))
          .cell(std::to_string(payload.at("lemma37_ok").as_int()) + "/" +
                std::to_string(produced))
          .cell(payload.at("max_tree_ratio").as_number(), 4)
          .cell(2.0, 2)
          .cell(static_cast<std::uint64_t>(payload.at("max_boundary").as_int()));
    }
  }
  bench::print_table(exact_table,
                     "paper prediction: exact span <= 2 for every d >= 2 mesh "
                     "(1D meshes have span 1: compact sets are prefixes).");
  bench::print_table(big_table,
                     "paper prediction: Lemma 3.7 holds for every compact set (connected count =\n"
                     "sample count) and the constructive tree never exceeds 2|B| - 1 nodes\n"
                     "(max tree ratio < 2).");

  if (cli.has("json")) {
    bench::write_json_text(bench::json_path(cli, "bench_e6_mesh_span.json"),
                           report.to_json());
  }
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
