#include "core/csr_file.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/hash.hpp"
#include "util/require.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FNE_CSR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fne {

namespace {

// The format is little-endian and the zero-copy spans read the mapping
// in place; a big-endian host would need a translating loader nobody has
// asked for yet.
static_assert(std::endian::native == std::endian::little,
              "CsrFile's zero-copy loader requires a little-endian host");

/// Alignment-safe little-endian loads: validate() walks arbitrary
/// (possibly unaligned) byte images, so every read goes through memcpy.
[[nodiscard]] std::uint32_t load32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
[[nodiscard]] std::uint64_t load64(const char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void store64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

[[nodiscard]] std::uint64_t payload_checksum(std::uint64_t n, std::uint64_t m,
                                             const char* payload, std::size_t len) noexcept {
  // The n and m words join the digest so a header bit flip cannot pair
  // with an untouched payload; the checksum field itself stays out (it
  // cannot cover its own bytes).
  return Fnv1a{}.word(n).word(m).bytes(payload, len).value();
}

/// Header-field checks shared by validate() and read_header().  Returns
/// the parsed header on success.
[[nodiscard]] std::optional<std::string> check_header_fields(const char* p, std::size_t size,
                                                             CsrHeader& out) {
  if (size < kCsrHeaderBytes) {
    return "truncated header (" + std::to_string(size) + " of " +
           std::to_string(kCsrHeaderBytes) + " bytes)";
  }
  if (std::string_view(p, kCsrMagic.size()) != kCsrMagic) return "bad magic";
  const std::uint32_t version = load32(p + 8);
  if (version != kCsrVersion) {
    return "unsupported version " + std::to_string(version) + " (expected " +
           std::to_string(kCsrVersion) + ")";
  }
  if (load32(p + 12) != 0) return "nonzero reserved field";
  out.n = load64(p + 16);
  out.m = load64(p + 24);
  out.checksum = load64(p + 32);
  if (out.n >= kCsrMaxVertices) {
    return "vertex count " + std::to_string(out.n) + " exceeds the 32-bit id space";
  }
  if (out.m >= kCsrMaxEdges) {
    return "edge count " + std::to_string(out.m) + " exceeds the 32-bit id space";
  }
  return std::nullopt;
}

/// Exact image size implied by a (validated) header.  n < 2^31 and
/// m < 2^31 keep every term far below 2^64 — no overflow.
[[nodiscard]] std::uint64_t expected_size(const CsrHeader& h) noexcept {
  return kCsrHeaderBytes + (h.n + 1) * 8 + 2 * h.m * 4;
}

}  // namespace

std::optional<std::string> CsrFile::validate(std::string_view bytes) {
  CsrHeader h;
  if (auto err = check_header_fields(bytes.data(), bytes.size(), h)) return err;
  if (bytes.size() != expected_size(h)) {
    return "size mismatch (header implies " + std::to_string(expected_size(h)) + " bytes, have " +
           std::to_string(bytes.size()) + ")";
  }
  const char* payload = bytes.data() + kCsrHeaderBytes;
  const std::size_t payload_len = bytes.size() - kCsrHeaderBytes;
  if (payload_checksum(h.n, h.m, payload, payload_len) != h.checksum) {
    return "checksum mismatch";
  }

  // Structural validation of the canonical CSR: offsets monotone and
  // closed over the arc array, adjacency in range, strictly ascending
  // per vertex (no duplicates), loop-free, and fully symmetric.
  const char* off = payload;                  // (n+1) x u64
  const char* adj = payload + (h.n + 1) * 8;  // 2m x u32
  const std::uint64_t arcs = 2 * h.m;
  if (load64(off) != 0) return "offsets[0] != 0";
  std::uint64_t prev = 0;
  for (std::uint64_t v = 0; v < h.n; ++v) {
    const std::uint64_t next = load64(off + (v + 1) * 8);
    if (next < prev) return "offsets decrease at vertex " + std::to_string(v);
    if (next > arcs) return "offsets overrun the arc array at vertex " + std::to_string(v);
    prev = next;
  }
  if (prev != arcs) {
    return "offsets[n]=" + std::to_string(prev) + " != 2m=" + std::to_string(arcs);
  }
  for (std::uint64_t v = 0; v < h.n; ++v) {
    const std::uint64_t lo = load64(off + v * 8);
    const std::uint64_t hi = load64(off + (v + 1) * 8);
    std::uint64_t last = 0;
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint32_t w = load32(adj + i * 4);
      if (w >= h.n) return "neighbor " + std::to_string(w) + " out of range";
      if (w == v) return "self loop at vertex " + std::to_string(v);
      if (i > lo && w <= last) {
        return "unsorted or duplicate neighbor at vertex " + std::to_string(v);
      }
      last = w;
    }
  }
  // Symmetry: every arc (v, w) needs its reverse.  Binary search over w's
  // (already proven sorted) neighbor list.
  const auto has_arc = [&](std::uint64_t from, std::uint32_t to) {
    std::uint64_t lo = load64(off + from * 8);
    std::uint64_t hi = load64(off + (from + 1) * 8);
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      const std::uint32_t w = load32(adj + mid * 4);
      if (w == to) return true;
      if (w < to) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return false;
  };
  for (std::uint64_t v = 0; v < h.n; ++v) {
    const std::uint64_t lo = load64(off + v * 8);
    const std::uint64_t hi = load64(off + (v + 1) * 8);
    for (std::uint64_t i = lo; i < hi; ++i) {
      const std::uint32_t w = load32(adj + i * 4);
      if (!has_arc(w, static_cast<std::uint32_t>(v))) {
        return "asymmetric arc " + std::to_string(v) + " -> " + std::to_string(w);
      }
    }
  }
  return std::nullopt;
}

CsrHeader CsrFile::read_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FNE_REQUIRE(static_cast<bool>(in), "csr file " + path + ": cannot open");
  char buf[kCsrHeaderBytes];
  in.read(buf, static_cast<std::streamsize>(kCsrHeaderBytes));
  const auto got = static_cast<std::size_t>(in.gcount());
  CsrHeader h;
  if (auto err = check_header_fields(buf, got, h)) {
    FNE_REQUIRE(false, "csr file " + path + ": " + *err);
  }
  return h;
}

CsrFile CsrFile::open(const std::string& path, Load mode) {
  CsrFile f;
  bool use_mmap = false;
#ifdef FNE_CSR_HAVE_MMAP
  use_mmap = mode != Load::kBuffer;
#else
  FNE_REQUIRE(mode != Load::kMmap, "csr file " + path + ": mmap unavailable on this platform");
#endif
#ifdef FNE_CSR_HAVE_MMAP
  if (use_mmap) {
    const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(cppcoreguidelines-pro-type-vararg)
    FNE_REQUIRE(fd >= 0, "csr file " + path + ": cannot open");
    struct stat st{};
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
      ::close(fd);
      FNE_REQUIRE(false, "csr file " + path + ": not a regular file");
    }
    const auto len = static_cast<std::size_t>(st.st_size);
    // An empty range is invalid to mmap; an empty file fails validation
    // (truncated header) below either way, so skip the call for len 0.
    void* map = nullptr;
    if (len > 0) {
      map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      if (map == MAP_FAILED) {
        ::close(fd);
        FNE_REQUIRE(false, "csr file " + path + ": mmap failed");
      }
    }
    ::close(fd);  // the mapping outlives the descriptor
    f.map_ = map;
    f.map_len_ = len;
    f.data_ = len > 0 ? static_cast<const char*>(map) : "";
    f.size_ = len;
  }
#endif
  if (!use_mmap) {
    // Buffered mode (explicit, or the no-mmap fallback): read the whole
    // image into one 8-byte-aligned allocation so the span accessors see
    // the same alignment the mapping provides.
    std::ifstream in(path, std::ios::binary);
    FNE_REQUIRE(static_cast<bool>(in), "csr file " + path + ": cannot open");
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    // tellg() returns -1 on failure; casting that to size_t would ask
    // resize() for ~2^64 bytes — fail with the clean contract error.
    FNE_REQUIRE(end != std::streampos(-1), "csr file " + path + ": cannot determine size");
    const auto len = static_cast<std::size_t>(end);
    in.seekg(0, std::ios::beg);
    f.buffer_.resize(len / 8 + 1, 0);
    in.read(reinterpret_cast<char*>(f.buffer_.data()), static_cast<std::streamsize>(len));
    FNE_REQUIRE(static_cast<std::size_t>(in.gcount()) == len,
                "csr file " + path + ": short read");
    f.data_ = reinterpret_cast<const char*>(f.buffer_.data());
    f.size_ = len;
  }
  if (auto err = validate(std::string_view(f.data_, f.size_))) {
    FNE_REQUIRE(false, "csr file " + path + ": " + *err);
  }
  (void)check_header_fields(f.data_, f.size_, f.header_);
  return f;
}

std::span<const std::uint64_t> CsrFile::offsets() const noexcept {
  // kCsrHeaderBytes is a multiple of 8 and both backings (page-aligned
  // mapping, u64 buffer) are 8-byte aligned, so the cast is sound.
  const auto* p = reinterpret_cast<const std::uint64_t*>(data_ + kCsrHeaderBytes);
  return {p, static_cast<std::size_t>(header_.n + 1)};
}

std::span<const std::uint32_t> CsrFile::adj() const noexcept {
  const auto* p =
      reinterpret_cast<const std::uint32_t*>(data_ + kCsrHeaderBytes + (header_.n + 1) * 8);
  return {p, static_cast<std::size_t>(2 * header_.m)};
}

Graph CsrFile::to_graph() const {
  FNE_REQUIRE(data_ != nullptr, "to_graph() on an empty CsrFile");
  const auto n = static_cast<vid>(header_.n);
  const std::span<const std::uint64_t> off = offsets();
  const std::span<const std::uint32_t> arcs = adj();
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(header_.m));
  for (vid v = 0; v < n; ++v) {
    for (std::uint64_t i = off[v]; i < off[v + 1]; ++i) {
      const auto w = static_cast<vid>(arcs[i]);
      if (v < w) edges.push_back({v, w});
    }
  }
  FNE_REQUIRE(edges.size() == header_.m,
              "csr file: arc orientation count disagrees with the header");
  Graph g = Graph::from_edges(n, std::move(edges));
  // Close the loop: the rebuilt CSR must reproduce the stored payload
  // exactly.  open() already proved the file canonical, so a mismatch
  // here is a decoder bug, not bad input — but the check is cheap and
  // turns any such bug into a loud error instead of a silent wrong graph.
  bool same = g.num_edges() == header_.m;
  for (vid v = 0; same && v < n; ++v) {
    const std::span<const vid> nb = g.neighbors(v);
    // An isolated vertex's span is empty, and in an edgeless graph its
    // data() is null, which memcmp must never see, even for length 0.
    same = nb.size() == off[v + 1] - off[v] &&
           (nb.empty() ||
            std::memcmp(nb.data(), arcs.data() + off[v], nb.size() * sizeof(vid)) == 0);
  }
  FNE_REQUIRE(same, "csr file: rebuilt adjacency diverges from the stored payload");
  return g;
}

std::string CsrFile::encode(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  std::string payload;
  payload.reserve((n + 1) * 8 + 2 * m * 4);
  std::uint64_t cursor = 0;
  store64(payload, 0);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    cursor += g.degree(v);
    store64(payload, cursor);
  }
  for (vid v = 0; v < g.num_vertices(); ++v) {
    for (const vid w : g.neighbors(v)) store32(payload, w);
  }
  std::string out;
  out.reserve(kCsrHeaderBytes + payload.size());
  out.append(kCsrMagic);
  store32(out, kCsrVersion);
  store32(out, 0);
  store64(out, n);
  store64(out, m);
  store64(out, payload_checksum(n, m, payload.data(), payload.size()));
  out.append(payload);
  return out;
}

void CsrFile::write(const std::string& path, const Graph& g) {
  const std::string bytes = encode(g);
  // Unique same-directory temp name: with a fixed "path + .tmp", two
  // concurrent writers interleave into the shared temp file and rename a
  // torn image into place.  The pid separates processes, the counter
  // separates threads; rename() keeps the final swap atomic either way.
  static std::atomic<std::uint64_t> write_stamp{0};
  std::uint64_t pid = 0;
#if defined(__unix__) || defined(__APPLE__)
  pid = static_cast<std::uint64_t>(::getpid());
#endif
  const std::string tmp = path + ".tmp." + std::to_string(pid) + "." +
                          std::to_string(write_stamp.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    FNE_REQUIRE(static_cast<bool>(out), "csr file " + tmp + ": cannot write");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      FNE_REQUIRE(false, "csr file " + tmp + ": write failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    FNE_REQUIRE(false, "csr file " + path + ": rename from temp failed");
  }
}

void CsrFile::reset() noexcept {
#ifdef FNE_CSR_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
  buffer_.clear();
  data_ = nullptr;
  size_ = 0;
  header_ = {};
}

CsrFile::CsrFile(CsrFile&& o) noexcept
    : header_(o.header_),
      buffer_(std::move(o.buffer_)),
      map_(o.map_),
      map_len_(o.map_len_),
      data_(o.data_),
      size_(o.size_) {
  o.map_ = nullptr;
  o.map_len_ = 0;
  o.data_ = nullptr;
  o.size_ = 0;
  o.header_ = {};
}

CsrFile& CsrFile::operator=(CsrFile&& o) noexcept {
  if (this != &o) {
    reset();
    header_ = o.header_;
    buffer_ = std::move(o.buffer_);
    map_ = o.map_;
    map_len_ = o.map_len_;
    data_ = o.data_;
    size_ = o.size_;
    o.map_ = nullptr;
    o.map_len_ = 0;
    o.data_ = nullptr;
    o.size_ = 0;
    o.header_ = {};
  }
  return *this;
}

CsrFile::~CsrFile() { reset(); }

}  // namespace fne
