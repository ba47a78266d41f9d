// edgelist2csr — canonicalize a text edge list into the binary CSR
// format behind the `file` topology (core/csr_file.hpp, DESIGN.md §14).
//
// The input side is the tolerant reader (core/io.hpp): '#'/'%' comments
// and blank lines are skipped, self loops dropped (counted), duplicate
// edges merged.  The default expects SNAP-style headerless "u v" lines
// and infers n = max id + 1; --header switches to the repo's "n m"
// first-line format, --strict additionally restores the pre-§14 exact
// contract (round-trip use).
//
// Usage:
//   edgelist2csr --in=graph.txt --out=graph.csr [--header] [--strict]
//                [--min-n=N]
//
// Output is deterministic: equal graphs encode to byte-identical files
// (canonical CSR), which is what lets CI regenerate a fixture and `cmp`
// it against the committed copy.
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "core/csr_file.hpp"
#include "core/graph.hpp"
#include "core/io.hpp"
#include "util/cli.hpp"
#include "util/require.hpp"

namespace {

int run(int argc, char** argv) {
  const fne::Cli cli(argc, argv);
  const std::string in_path = cli.get("in", "");
  const std::string out_path = cli.get("out", "");
  if (in_path.empty() || out_path.empty()) {
    std::cerr << "usage: edgelist2csr --in=EDGELIST --out=CSR [--header] [--strict]"
                 " [--min-n=N]\n"
                 "  --header   input starts with an \"n m\" line (default: headerless,\n"
                 "             SNAP style, n inferred as max id + 1)\n"
                 "  --strict   exact pre-conversion contract: header required, exactly m\n"
                 "             pairs, self loops fatal\n"
                 "  --min-n=N  floor for the inferred vertex count (headerless only)\n";
    return 2;
  }

  fne::EdgeListOptions opts;
  opts.strict = cli.has("strict");
  opts.header = opts.strict || cli.has("header");
  opts.min_n = cli.get_int_in_range<fne::vid>("min-n", 0, 0, UINT32_MAX);

  std::ifstream in(in_path);
  FNE_REQUIRE(in.good(), "edgelist2csr: cannot open input '" + in_path + "'");
  fne::EdgeListStats stats;
  const fne::Graph g = fne::read_edge_list(in, opts, &stats);

  fne::CsrFile::write(out_path, g);
  const fne::CsrHeader h = fne::CsrFile::read_header(out_path);

  const std::size_t duplicates = stats.parsed_edges - g.num_edges();
  std::cout << "edgelist2csr: " << in_path << " -> " << out_path << "\n"
            << "  n=" << g.num_vertices() << " m=" << g.num_edges()
            << " checksum=" << h.checksum << "\n"
            << "  comments=" << stats.comment_lines << " blanks=" << stats.blank_lines
            << " self_loops_dropped=" << stats.self_loops
            << " duplicates_merged=" << duplicates << "\n";
  if (opts.header && stats.declared_m != g.num_edges()) {
    std::cout << "  note: header declared m=" << stats.declared_m << ", kept "
              << g.num_edges() << " after cleanup\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "edgelist2csr: " << e.what() << "\n";
    return 1;
  }
}
