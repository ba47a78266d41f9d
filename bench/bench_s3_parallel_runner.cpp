// S3 — sharded Scenario repetitions across the executor pool.
//
// A scenario's repetitions — the embarrassingly-parallel dimension of the
// paper's experiments — run as a one-entry campaign: CampaignRunner
// shards the independent fault/prune repetitions over its ExecutorPool,
// each job on an engine leased from the process-wide EngineCache.  Seeds
// derive per repetition (never per thread) and every lease drops the
// engine's warm state, so the outputs are bit-identical for ANY thread
// count; this bench verifies that contract on every run and measures the
// scaling (target on >= 4 hardware threads: >= 3x at 4 threads vs 1).
//
// Flags: --side=N (default 32), --reps=N (default 200), --faults=P
// (default 0.3), --threads=N (default: hardware), --min-speedup=X
// (sanity floor on the best measured speedup; the default 0.8 tolerates
// pure pool overhead on 1-core CI machines but fails a real regression),
// --seed=S, --json=out.json.
#include "bench_common.hpp"

#include <thread>

#include "api/campaign.hpp"

namespace fne {
namespace {

bool identical(const ScenarioRun& a, const ScenarioRun& b) {
  return a.repetition == b.repetition && a.fault_seed == b.fault_seed &&
         a.finder_seed == b.finder_seed && a.alive == b.alive &&
         a.prune.survivors == b.prune.survivors && a.prune.iterations == b.prune.iterations &&
         a.prune.total_culled == b.prune.total_culled;
}

}  // namespace
}  // namespace fne

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const std::uint64_t seed = cli.get_seed();
  const auto side = cli.get_int_in_range<vid>("side", 32, 2, 4096);
  const int reps = cli.get_int_in_range<int>("reps", 200, 1, 1000000);
  const double fault_p = cli.get_double("faults", 0.3);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = bench::threads_flag(cli);
  const double min_speedup = cli.get_double("min-speedup", 0.8);

  bench::print_header("S3-PARALLEL",
                      "Sharded Scenario repetitions across an engine pool (bit-identical at any "
                      "thread count; target >= 3x at 4 threads on 4+ cores)");

  Scenario scenario;
  scenario.name = "parallel-mesh";
  scenario.topology = {"mesh", Params().set("side", static_cast<std::int64_t>(side))};
  scenario.fault = {"random", Params().set("p", fault_p)};
  scenario.prune.kind = ExpansionKind::Node;
  scenario.prune.alpha = 2.0 / static_cast<double>(side);
  scenario.prune.fast = true;
  scenario.repetitions = reps;
  scenario.seed = seed;

  const std::shared_ptr<const Graph> graph = scenario_graph(scenario);
  std::cout << "graph: " << graph->summary() << ", " << reps << " repetitions, " << hw
            << " hardware threads\n\n";

  CampaignRunner runner(Campaign{"parallel-mesh", {{scenario, std::nullopt}}});
  const auto run_reps = [&](int t) {
    CampaignReport report = runner.run(t);
    return std::move(report.scenarios.front().runs);
  };
  Timer timer;
  const std::vector<ScenarioRun> serial = run_reps(1);
  const double serial_ms = timer.millis();

  Table table({"threads", "total ms", "ms/rep", "speedup", "bit-identical to 1 thread"});
  table.row().cell(1).cell(serial_ms, 1).cell(serial_ms / reps, 2).cell(1.0, 2).cell("-");

  bench::JsonReport json("bench_s3_parallel_runner");
  json.top()
      .put("workload",
           "mesh " + std::to_string(side) + "x" + std::to_string(side) + ", " +
               std::to_string(reps) + " reps, fast prune")
      .put("n", std::size_t{graph->num_vertices()})
      .put("reps", reps)
      .put("hardware_threads", static_cast<std::int64_t>(hw));
  json.record("scaling").put("threads", 1).put("millis", serial_ms).put("speedup", 1.0);

  bool all_identical = true;
  double best_speedup = 0.0;  // only measured (and bit-identical) runs count
  std::vector<int> counts{2};
  if (threads > 2) counts.push_back(threads);
  for (int t : counts) {
    timer.reset();
    const std::vector<ScenarioRun> parallel = run_reps(t);
    const double ms = timer.millis();
    bool same = parallel.size() == serial.size();
    for (std::size_t i = 0; same && i < serial.size(); ++i) {
      same = identical(serial[i], parallel[i]);
    }
    all_identical = all_identical && same;
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    if (same) best_speedup = std::max(best_speedup, speedup);
    table.row().cell(t).cell(ms, 1).cell(ms / reps, 2).cell(speedup, 2).cell(bench::yesno(same));
    json.record("scaling").put("threads", t).put("millis", ms).put("speedup", speedup);
  }

  bench::print_table(table,
                     "acceptance: every thread count reproduces the 1-thread runs bit for bit\n"
                     "(seeds are per repetition, caches per-rep cold); speedup tracks cores.");

  const bool pass = all_identical && best_speedup >= min_speedup;
  json.top()
      .put("best_speedup", best_speedup)
      .put("bit_identical", all_identical)
      .put("pass", pass);
  if (cli.has("json")) json.write(bench::json_path(cli, "bench_s3_parallel_runner.json"));

  std::cout << "\nbit-identical across thread counts: " << (all_identical ? "PASS" : "FAIL")
            << ", best speedup: " << best_speedup << "x (threshold " << min_speedup << "x: "
            << (best_speedup >= min_speedup ? "PASS" : "FAIL") << ")\n";
  return pass ? 0 : 1;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
