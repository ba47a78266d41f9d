// S7 — real-graph ingestion pipeline (DESIGN.md §14).
//
// Acceptance claims:
//
//   1. Convert-once pays off: loading a binary CSR file (mmap or
//      buffered) is substantially faster than re-parsing the text edge
//      list it was converted from — the whole point of edgelist2csr.
//      Gate: csr load (either mode) <= text parse time.
//
//   2. Load-mode equivalence: mmap and buffered loads decode the SAME
//      graph (vertex count, edge count, canonical re-encoding) — the
//      perf choice cannot change a result bit.
//
//   3. Throughput scales: edges/second for parse, convert and load are
//      reported across --scale'd synthetic graphs so the trajectory is
//      a diffable artifact, not a one-off.
//
// Flags: --scale=N (vertex multiplier, default 1), --trials=N (default
// 3, best-of), --json=out.json.
#include "bench_common.hpp"

#include <filesystem>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/csr_file.hpp"
#include "core/graph.hpp"
#include "core/io.hpp"
#include "util/require.hpp"

namespace {

/// A messy SNAP-style text edge list over a preferential-attachment-ish
/// graph: comments, blank lines, duplicates, self loops — the shape the
/// tolerant reader exists for.  Deterministic per (n, seed).
[[nodiscard]] std::string synthetic_edge_list(fne::vid n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::ostringstream os;
  os << "# synthetic ingest bench graph n=" << n << "\n";
  os << "# FromNodeId\tToNodeId\n";
  std::vector<fne::vid> targets;
  targets.reserve(static_cast<std::size_t>(n) * 3);
  targets.push_back(0);
  for (fne::vid v = 1; v < n; ++v) {
    // Ring + two skewed attachments per vertex.
    os << v - 1 << "\t" << v << "\n";
    for (int k = 0; k < 2; ++k) {
      const fne::vid u = targets[rng() % targets.size()];
      if (u != v) os << v << "\t" << u << "\n";
      if ((rng() & 15) == 0) os << v << "\t" << v << "\n";    // self loop
      if ((rng() & 15) == 1) os << u << "\t" << v << "\n";    // duplicate
    }
    targets.push_back(v);
    targets.push_back(v);
  }
  os << n - 1 << "\t0\n";
  return os.str();
}

template <typename Fn>
[[nodiscard]] double best_of(int trials, const Fn& fn) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    const fne::Timer timer;
    fn();
    const double ms = timer.millis();
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

static int run_main(const fne::Cli& cli) {
  using namespace fne;
  const auto scale = cli.get_int_in_range<vid>("scale", 1, 1, 4096);
  const int trials = cli.get_int_in_range<int>("trials", 3, 1, 10000);

  bench::print_header("S7", "ingestion: text parse vs binary CSR load (mmap/buffered), "
                            "load-mode equivalence");

  bench::JsonReport report("bench_s7_ingest");
  report.top()
      .put("scale", static_cast<std::int64_t>(scale))
      .put("trials", trials)
      .put("threads", bench::max_threads());

  Table table({"n", "m", "text parse ms", "convert ms", "mmap load ms",
               "buffered load ms", "load speedup", "ok"});
  bool all_ok = true;

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fne_bench_s7";
  std::filesystem::create_directories(dir);

  for (const vid base : {vid{2000}, vid{8000}, vid{32000}}) {
    const vid n = base * scale;
    const std::string text = synthetic_edge_list(n, 7 + n);

    EdgeListOptions opts;
    opts.header = false;
    Graph parsed = Graph::from_edges(0, {});
    const double parse_ms = best_of(trials, [&] {
      std::istringstream in(text);
      parsed = read_edge_list(in, opts);
    });

    const std::string path = (dir / ("s7_" + std::to_string(n) + ".csr")).string();
    const double convert_ms = best_of(trials, [&] { CsrFile::write(path, parsed); });

    Graph via_mmap = Graph::from_edges(0, {});
    const double mmap_ms = best_of(trials, [&] {
      via_mmap = CsrFile::open(path, CsrFile::Load::kAuto).to_graph();
    });
    Graph via_buffer = Graph::from_edges(0, {});
    const double buffer_ms = best_of(trials, [&] {
      via_buffer = CsrFile::open(path, CsrFile::Load::kBuffer).to_graph();
    });

    // Equivalence: both load modes reproduce the parsed graph exactly
    // (canonical encoding is unique per graph value).
    const std::string canon = CsrFile::encode(parsed);
    const bool ok = CsrFile::encode(via_mmap) == canon &&
                    CsrFile::encode(via_buffer) == canon &&
                    std::min(mmap_ms, buffer_ms) <= parse_ms;
    all_ok = all_ok && ok;

    const double speedup = parse_ms / std::max(1e-9, std::min(mmap_ms, buffer_ms));
    table.row()
        .cell(static_cast<std::size_t>(parsed.num_vertices()))
        .cell(static_cast<std::size_t>(parsed.num_edges()))
        .cell(parse_ms)
        .cell(convert_ms)
        .cell(mmap_ms)
        .cell(buffer_ms)
        .cell(speedup, 2)
        .cell(ok ? "yes" : "NO");

    report.record("sizes")
        .put("n", static_cast<std::uint64_t>(parsed.num_vertices()))
        .put("m", static_cast<std::uint64_t>(parsed.num_edges()))
        .put("parse_ms", parse_ms)
        .put("convert_ms", convert_ms)
        .put("mmap_load_ms", mmap_ms)
        .put("buffered_load_ms", buffer_ms)
        .put("load_speedup", speedup)
        .put("ok", ok);
  }

  bench::print_table(table,
                     "load speedup = text parse / min(load mode); ok requires identical "
                     "graphs and load <= parse");
  report.top().put("all_ok", all_ok);

  if (cli.has("json")) {
    (void)bench::write_json_text(bench::json_path(cli, "bench_s7_ingest.json"), report.dump());
  }

  if (!all_ok) {
    std::cerr << "S7: FAILED (load slower than parse, or load modes disagree)\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) { return fne::cli_main(argc, argv, run_main); }
