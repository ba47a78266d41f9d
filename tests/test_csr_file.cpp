// CsrFile codec: canonical round trips over the graph-family fixtures,
// mmap/buffer parity, and the total-decode fuzz surface (every prefix
// truncation, every single-bit flip, oversized headers, crafted
// non-canonical payloads behind valid checksums) — clean errors only,
// the test_dist_protocol.cpp discipline applied to the §14 format.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/csr_file.hpp"
#include "core/graph.hpp"
#include "core/io.hpp"
#include "graph_cases.hpp"
#include "util/hash.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

namespace fs = std::filesystem;
using testing::Family;
using testing::GraphCase;
using testing::GraphCaseName;

[[nodiscard]] std::string tmp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / ("fne_csr_" + name)).string();
}

void expect_graphs_equal(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (eid e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edges()[e].u, b.edges()[e].u);
    EXPECT_EQ(a.edges()[e].v, b.edges()[e].v);
  }
}

/// Rebuild an image's checksum so structural corruptions survive the
/// checksum gate and hit the validator they target.
void reseal(std::string& image) {
  ASSERT_GE(image.size(), kCsrHeaderBytes);
  std::uint64_t n = 0, m = 0;
  std::memcpy(&n, image.data() + 16, 8);
  std::memcpy(&m, image.data() + 24, 8);
  const std::uint64_t sum = Fnv1a{}
                                .word(n)
                                .word(m)
                                .bytes(image.data() + kCsrHeaderBytes,
                                       image.size() - kCsrHeaderBytes)
                                .value();
  std::memcpy(image.data() + 32, &sum, 8);
}

class CsrRoundTrip : public ::testing::TestWithParam<GraphCase> {};

TEST_P(CsrRoundTrip, EncodeValidateWriteOpenBothModes) {
  const Graph g = GetParam().make();
  const std::string image = CsrFile::encode(g);
  EXPECT_EQ(CsrFile::validate(image), std::nullopt);

  const std::string path = tmp_path(GetParam().label() + ".csr");
  CsrFile::write(path, g);

  const CsrHeader h = CsrFile::read_header(path);
  EXPECT_EQ(h.n, g.num_vertices());
  EXPECT_EQ(h.m, g.num_edges());

  const CsrFile mapped = CsrFile::open(path, CsrFile::Load::kAuto);
  const CsrFile buffered = CsrFile::open(path, CsrFile::Load::kBuffer);
  EXPECT_FALSE(buffered.mmapped());
  EXPECT_EQ(mapped.header().checksum, buffered.header().checksum);
  ASSERT_EQ(mapped.offsets().size(), buffered.offsets().size());
  ASSERT_EQ(mapped.adj().size(), buffered.adj().size());
  for (std::size_t i = 0; i < mapped.offsets().size(); ++i) {
    ASSERT_EQ(mapped.offsets()[i], buffered.offsets()[i]);
  }
  for (std::size_t i = 0; i < mapped.adj().size(); ++i) {
    ASSERT_EQ(mapped.adj()[i], buffered.adj()[i]);
  }

  expect_graphs_equal(mapped.to_graph(), g);
  expect_graphs_equal(buffered.to_graph(), g);

  // Canonical form: re-encoding the decoded graph reproduces the bytes.
  EXPECT_EQ(CsrFile::encode(mapped.to_graph()), image);
}

TEST_P(CsrRoundTrip, TextConversionMatchesDirectEncoding) {
  // The ingestion pipeline (write_edge_list -> tolerant read -> encode)
  // lands on the same canonical bytes as encoding the graph directly —
  // text-vs-binary parity for every fixture family.
  const Graph g = GetParam().make();
  std::stringstream text;
  write_edge_list(text, g);
  const Graph parsed = read_edge_list(text);
  expect_graphs_equal(parsed, g);
  EXPECT_EQ(CsrFile::encode(parsed), CsrFile::encode(g));
}

INSTANTIATE_TEST_SUITE_P(Families, CsrRoundTrip,
                         ::testing::Values(GraphCase{Family::Path, 17, 0},
                                           GraphCase{Family::Cycle, 12, 0},
                                           GraphCase{Family::Complete, 9, 0},
                                           GraphCase{Family::Star, 15, 0},
                                           GraphCase{Family::Barbell, 6, 0},
                                           GraphCase{Family::Mesh2D, 5, 0},
                                           GraphCase{Family::Torus2D, 4, 0},
                                           GraphCase{Family::Hypercube, 4, 0},
                                           GraphCase{Family::DeBruijn, 4, 0},
                                           GraphCase{Family::RandomRegular4, 24, 7},
                                           GraphCase{Family::ErdosRenyi, 20, 11}),
                         GraphCaseName());

TEST(CsrFileFormat, EmptyEdgelessAndIsolatedVertexGraphsRoundTrip) {
  // Edgeless graphs have null adjacency data; the last graph's vertices
  // 0, 3 and 6 are isolated between vertices that have neighbors.
  for (const Graph& g : {Graph::from_edges(0, {}), Graph::from_edges(1, {}),
                         Graph::from_edges(5, {}),
                         Graph::from_edges(7, {{1, 2}, {2, 4}, {4, 5}, {1, 5}})}) {
    const std::string path = tmp_path("isolated_" + std::to_string(g.num_vertices()) + ".csr");
    CsrFile::write(path, g);
    for (const CsrFile::Load load : {CsrFile::Load::kAuto, CsrFile::Load::kBuffer}) {
      const CsrFile f = CsrFile::open(path, load);
      EXPECT_EQ(f.header().n, g.num_vertices());
      EXPECT_EQ(f.header().m, g.num_edges());
      expect_graphs_equal(f.to_graph(), g);
    }
  }
}

TEST(CsrFileFormat, OpenRejectsMissingAndGarbageFiles) {
  EXPECT_THROW((void)CsrFile::open(tmp_path("nonexistent.csr")), PreconditionError);
  EXPECT_THROW((void)CsrFile::read_header(tmp_path("nonexistent.csr")), PreconditionError);

  const std::string path = tmp_path("garbage.csr");
  std::ofstream(path, std::ios::binary) << "this is not a csr file at all";
  EXPECT_THROW((void)CsrFile::open(path), PreconditionError);
  EXPECT_THROW((void)CsrFile::open(path, CsrFile::Load::kBuffer), PreconditionError);
  EXPECT_THROW((void)CsrFile::read_header(path), PreconditionError);
}

TEST(CsrFileFuzz, EveryPrefixTruncationIsRejected) {
  const std::string image = CsrFile::encode(testing::GraphCase{Family::Cycle, 9, 0}.make());
  for (std::size_t len = 0; len < image.size(); ++len) {
    const auto err = CsrFile::validate(std::string_view(image).substr(0, len));
    EXPECT_TRUE(err.has_value()) << "prefix of " << len << " bytes accepted";
  }
  EXPECT_EQ(CsrFile::validate(image), std::nullopt);
  // Trailing garbage is a size mismatch, not extra capacity.
  EXPECT_TRUE(CsrFile::validate(image + '\0').has_value());
}

TEST(CsrFileFuzz, AnySingleBitFlipIsRejected) {
  // The checksum covers n, m and the payload; magic/version/reserved are
  // checked by equality and the checksum field by recomputation — so NO
  // single-bit flip anywhere in the image may validate.
  const std::string image = CsrFile::encode(testing::GraphCase{Family::Cycle, 8, 0}.make());
  ASSERT_EQ(CsrFile::validate(image), std::nullopt);
  for (std::size_t i = 0; i < image.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_TRUE(CsrFile::validate(flipped).has_value())
          << "flip at byte " << i << " bit " << bit << " accepted";
    }
  }
}

TEST(CsrFileFuzz, OversizedHeaderCountsAreRejectedBeforeAllocation) {
  // A corrupt header claiming 2^31 vertices/edges must fail the header
  // check itself — open() never trusts it enough to size a buffer.
  std::string image = CsrFile::encode(Graph::from_edges(2, {{0, 1}}));
  std::string huge_n = image;
  const std::uint64_t big = std::uint64_t{1} << 31;
  std::memcpy(huge_n.data() + 16, &big, 8);
  reseal(huge_n);
  const auto err_n = CsrFile::validate(huge_n);
  ASSERT_TRUE(err_n.has_value());
  EXPECT_NE(err_n->find("exceeds the 32-bit id space"), std::string::npos);

  std::string huge_m = image;
  std::memcpy(huge_m.data() + 24, &big, 8);
  reseal(huge_m);
  const auto err_m = CsrFile::validate(huge_m);
  ASSERT_TRUE(err_m.has_value());
  EXPECT_NE(err_m->find("exceeds the 32-bit id space"), std::string::npos);

  // Large-but-legal counts with a short image: size mismatch, no read.
  std::string short_img = image;
  const std::uint64_t large = (std::uint64_t{1} << 31) - 2;
  std::memcpy(short_img.data() + 16, &large, 8);
  reseal(short_img);
  const auto err_s = CsrFile::validate(short_img);
  ASSERT_TRUE(err_s.has_value());
  EXPECT_NE(err_s->find("size mismatch"), std::string::npos);
}

TEST(CsrFileFuzz, NonCanonicalPayloadsBehindValidChecksumsAreRejected) {
  // Corruptions that keep the size right and get a fresh, *valid*
  // checksum — only the structural validator can catch these.
  const Graph g = testing::GraphCase{Family::Cycle, 6, 0}.make();
  const std::string image = CsrFile::encode(g);
  const std::size_t off0 = kCsrHeaderBytes;                        // offsets base
  const std::size_t adj0 = off0 + (g.num_vertices() + 1) * 8;      // adj base

  const auto expect_rejected = [&](std::string img, const std::string& what) {
    reseal(img);
    const auto err = CsrFile::validate(img);
    EXPECT_TRUE(err.has_value()) << what << " accepted";
  };

  {
    std::string img = image;  // self loop: vertex 0's first neighbor := 0
    const std::uint32_t zero = 0;
    std::memcpy(img.data() + adj0, &zero, 4);
    expect_rejected(img, "self loop");
  }
  {
    std::string img = image;  // duplicate: copy neighbor[1] over neighbor[0]
    char dup[4];
    std::memcpy(dup, img.data() + adj0 + 4, 4);
    std::memcpy(img.data() + adj0, dup, 4);
    expect_rejected(img, "duplicate neighbor");
  }
  {
    std::string img = image;  // descending order: swap vertex 0's two arcs
    char a[4], b[4];
    std::memcpy(a, img.data() + adj0, 4);
    std::memcpy(b, img.data() + adj0 + 4, 4);
    std::memcpy(img.data() + adj0, b, 4);
    std::memcpy(img.data() + adj0 + 4, a, 4);
    expect_rejected(img, "descending adjacency");
  }
  {
    std::string img = image;  // asymmetry: retarget one arc to vertex 3
    const std::uint32_t three = 3;
    std::memcpy(img.data() + adj0, &three, 4);
    expect_rejected(img, "asymmetric arc");
  }
  {
    std::string img = image;  // out-of-range neighbor
    const std::uint32_t big = g.num_vertices();
    std::memcpy(img.data() + adj0, &big, 4);
    expect_rejected(img, "out-of-range neighbor");
  }
  {
    std::string img = image;  // offsets[0] != 0
    const std::uint64_t one = 1;
    std::memcpy(img.data() + off0, &one, 8);
    expect_rejected(img, "nonzero offsets[0]");
  }
  {
    std::string img = image;  // decreasing offsets
    const std::uint64_t zero = 0;
    std::memcpy(img.data() + off0 + 2 * 8, &zero, 8);
    expect_rejected(img, "decreasing offsets");
  }
  {
    std::string img = image;  // offsets[n] overrun
    const std::uint64_t big = 2 * g.num_edges() + 8;
    std::memcpy(img.data() + off0 + g.num_vertices() * 8, &big, 8);
    expect_rejected(img, "offsets overrun");
  }
}

}  // namespace
}  // namespace fne
