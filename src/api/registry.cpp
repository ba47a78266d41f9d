#include "api/registry.hpp"

#include <memory>
#include <mutex>
#include <optional>

#include "core/csr_file.hpp"
#include "faults/adversary.hpp"
#include "faults/fault_model.hpp"
#include "topology/butterfly.hpp"
#include "topology/can_overlay.hpp"
#include "topology/chain_expander.hpp"
#include "topology/classic.hpp"
#include "topology/debruijn.hpp"
#include "topology/hypercube.hpp"
#include "topology/mesh.hpp"
#include "topology/multibutterfly.hpp"
#include "topology/random_graphs.hpp"
#include "topology/shuffle_exchange.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

[[nodiscard]] vid require_vid(const std::string& who, const Params& p, const std::string& key,
                              std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
  return narrow_in_range<vid>(who + ": " + key, p.get_int(key, fallback), lo, hi);
}

[[nodiscard]] double require_prob(const std::string& who, const Params& p,
                                  const std::string& key, double fallback) {
  const double v = p.get_double(key, fallback);
  FNE_REQUIRE(v >= 0.0 && v <= 1.0,
              who + ": " + key + "=" + std::to_string(v) + " must lie in [0, 1]");
  return v;
}

/// 64-bit checked conversion for vertex counts derived from params: the
/// contract must fail loudly on overflow, not compare wrapped numbers.
[[nodiscard]] vid checked_n(const std::string& who, std::uint64_t n) {
  FNE_REQUIRE(n < (std::uint64_t{1} << 31),
              who + ": " + std::to_string(n) + " vertices exceed the 32-bit id space");
  return static_cast<vid>(n);
}

/// The `file` topology's required path param.  Commas are rejected
/// because Params::to_string() — the cache/store key serialization — is
/// comma-separated (DESIGN.md §14).
[[nodiscard]] std::string file_topology_path(const Params& p) {
  const std::string path = p.get_str("path", "");
  FNE_REQUIRE(!path.empty(), "topology 'file': param 'path' is required");
  FNE_REQUIRE(path.find(',') == std::string::npos,
              "topology 'file': path may not contain ',' (reserved by the key codec)");
  return path;
}

[[nodiscard]] CsrFile::Load file_topology_mode(const Params& p) {
  return p.get_bool("mmap", true) ? CsrFile::Load::kAuto : CsrFile::Load::kBuffer;
}

/// One validated image per .csr path, serving the `file` topology's
/// expected_n, cache_salt, AND build.  Deriving all three from the same
/// bytes is what makes the content salt sound: with separate opens (a
/// header read for the salt, a full open for the graph), a file replaced
/// between the two gets its NEW graph cached under the OLD checksum —
/// a salt that no longer fingerprints what it claims to.
///
/// refresh() is the only entry point that looks at the filesystem: it
/// probes the 40-byte header and reopens the image only when the stored
/// checksum disagrees, so a rewritten file is picked up at the next key
/// computation.  build consumes pinned() verbatim — even if the file
/// changes between key and build, the graph matches the key's salt, and
/// the next refresh() serves the new content under its new salt.
///
/// Images stay pinned (one per distinct path; mmap-backed by default, so
/// the pages are reclaimable file cache, not anonymous memory).
class FileImageCache {
 public:
  static FileImageCache& instance() {
    static FileImageCache cache;
    return cache;
  }

  /// The pinned image for `path`, reopened first if the on-disk header
  /// checksum no longer matches.  Throws CsrFile::open's clean error on
  /// a missing or malformed file.
  [[nodiscard]] std::shared_ptr<const CsrFile> refresh(const std::string& path,
                                                       CsrFile::Load mode) {
    // The probe is advisory — it only decides whether to reopen.  The
    // salt callers read comes from the stored image itself, never from
    // this header read, so a file swapped mid-probe costs one extra
    // reopen, not a mismatched key.
    std::optional<std::uint64_t> probe;
    try {
      probe = CsrFile::read_header(path).checksum;
    } catch (const PreconditionError&) {
      // Unreadable or malformed right now: fall through to the full
      // open, which reports the authoritative error (or succeeds if the
      // file was mid-replacement).
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(path);
      if (it != entries_.end() && probe.has_value() &&
          it->second->header().checksum == *probe) {
        return it->second;
      }
    }
    // Open and validate OUTSIDE the lock (validation walks the whole
    // payload); on a concurrent refresh the last writer wins.
    auto image = std::make_shared<const CsrFile>(CsrFile::open(path, mode));
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_[path] = image;
    return image;
  }

  /// The image the most recent refresh() pinned, or nullptr.  No
  /// filesystem access: the build path must decode exactly the bytes the
  /// key's salt fingerprinted, not whatever the file holds by now.
  [[nodiscard]] std::shared_ptr<const CsrFile> pinned(const std::string& path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(path);
    return it != entries_.end() ? it->second : nullptr;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<const CsrFile>> entries_;
};

[[nodiscard]] vid pow_n(const std::string& who, vid base, vid exp) {
  std::uint64_t n = 1;
  for (vid i = 0; i < exp; ++i) {
    n *= base;
    (void)checked_n(who, n);
  }
  return checked_n(who, n);
}

/// Shared budget resolution for the adversarial fault models: an absolute
/// `budget` wins; otherwise `frac` of n (default 10%).
[[nodiscard]] vid resolve_budget(const std::string& who, const Graph& g, const Params& p) {
  if (p.has("budget")) {
    return require_vid(who, p, "budget", 0, 0, g.num_vertices());
  }
  const double frac = require_prob(who, p, "frac", 0.1);
  return static_cast<vid>(frac * static_cast<double>(g.num_vertices()));
}

const std::vector<ParamSpec> kBudgetParams = {
    {"budget", "", "absolute fault budget (overrides frac)"},
    {"frac", "0.1", "fault budget as a fraction of n"},
};

}  // namespace

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const std::string& item : items) {
    if (!out.empty()) out += ", ";
    out += item;
  }
  return out;
}

std::string param_summary(const std::vector<ParamSpec>& params) {
  std::vector<std::string> items;
  for (const ParamSpec& p : params) {
    items.push_back(p.default_value.empty() ? p.key : p.key + "=" + p.default_value);
  }
  return items.empty() ? "-" : join_list(items);
}

// ---------------------------------------------------------------------------
// TopologyRegistry
// ---------------------------------------------------------------------------

TopologyRegistry& TopologyRegistry::instance() {
  static TopologyRegistry registry;
  return registry;
}

void TopologyRegistry::add(TopologyEntry entry) {
  FNE_REQUIRE(static_cast<bool>(entry.build), "topology '" + entry.name + "' needs a factory");
  FNE_REQUIRE(static_cast<bool>(entry.expected_n),
              "topology '" + entry.name + "' needs a vertex-count contract");
  insert(std::move(entry));
}

vid TopologyRegistry::expected_n(const std::string& name, const Params& params) const {
  return at(name, params).expected_n(params);
}

Params TopologyRegistry::structure(const std::string& name, const Params& params) const {
  const TopologyEntry& entry = at(name, params);
  return entry.structure ? entry.structure(params) : Params{};
}

Mesh mesh_for(const std::string& name, const Params& params) {
  const Params s = TopologyRegistry::instance().structure(name, params);
  FNE_REQUIRE(s.has("side") && s.has("dims"),
              "topology '" + name + "' declares no mesh structure (side/dims)");
  // Structure metadata is produced by entry code, but add()-registered
  // entries are not audited: route through the same range check the
  // factories use so a negative side/dims fails loudly instead of
  // wrapping to a huge unsigned extent.
  const std::string who = "topology '" + name + "' structure";
  const vid side = require_vid(who, s, "side", 0, 1, 1 << 20);
  const vid dims = require_vid(who, s, "dims", 0, 1, 10);
  return Mesh::cube(side, dims, s.get_bool("wrap", false));
}

std::string topology_cache_salt(const std::string& name, const Params& params) {
  const TopologyEntry& entry = TopologyRegistry::instance().at(name);
  return entry.cache_salt ? entry.cache_salt(params) : std::string();
}

Graph TopologyRegistry::build(const std::string& name, const Params& params,
                              std::uint64_t seed) const {
  const TopologyEntry& entry = at(name, params);
  const vid want = entry.expected_n(params);
  Graph g = entry.build(params, seed);
  FNE_REQUIRE(g.num_vertices() == want,
              "topology '" + name + "' violated its vertex-count contract: built " +
                  std::to_string(g.num_vertices()) + ", declared " + std::to_string(want));
  return g;
}

TopologyRegistry::TopologyRegistry() : Registry("topology") {
  // Deterministic families.  Contracts mirror the header docs: the
  // 2^dims-vertex families (hypercube/debruijn/shuffle_exchange) and the
  // side^dims meshes make the previously implicit size explicit.
  // Mesh-family structure: the facts Mesh(sides, wrap) needs, so
  // mesh_for() can rebuild the coordinate object from a Scenario.
  const auto mesh_structure = [](const char* who, bool wrap) {
    return [who = std::string(who), wrap](const Params& p) {
      return Params{}
          .set("side", static_cast<std::int64_t>(require_vid(who, p, "side", 24, 1, 1 << 20)))
          .set("dims", static_cast<std::int64_t>(require_vid(who, p, "dims", 2, 1, 10)))
          .set("wrap", std::string(wrap ? "1" : "0"));
    };
  };
  add({"mesh",
       "d-dimensional mesh, side^dims vertices (topology/mesh.hpp)",
       {{"side", "24", "vertices per dimension"}, {"dims", "2", "dimensions"}},
       [](const Params& p) {
         return pow_n("topology 'mesh'",
                      require_vid("topology 'mesh'", p, "side", 24, 1, 1 << 20),
                      require_vid("topology 'mesh'", p, "dims", 2, 1, 10));
       },
       [](const Params& p, std::uint64_t) {
         return Mesh::cube(require_vid("topology 'mesh'", p, "side", 24, 1, 1 << 20),
                           require_vid("topology 'mesh'", p, "dims", 2, 1, 10))
             .graph();
       },
       /*seeded=*/false, mesh_structure("topology 'mesh'", false)});
  add({"torus",
       "d-dimensional torus (periodic mesh), side^dims vertices",
       {{"side", "24", "vertices per dimension"}, {"dims", "2", "dimensions"}},
       [](const Params& p) {
         return pow_n("topology 'torus'",
                      require_vid("topology 'torus'", p, "side", 24, 1, 1 << 20),
                      require_vid("topology 'torus'", p, "dims", 2, 1, 10));
       },
       [](const Params& p, std::uint64_t) {
         return Mesh::cube(require_vid("topology 'torus'", p, "side", 24, 1, 1 << 20),
                           require_vid("topology 'torus'", p, "dims", 2, 1, 10),
                           /*wrap=*/true)
             .graph();
       },
       /*seeded=*/false, mesh_structure("topology 'torus'", true)});
  add({"hypercube",
       "d-dimensional hypercube Q_d, 2^dims vertices",
       {{"dims", "8", "dimension d"}},
       [](const Params& p) {
         return vid{1} << require_vid("topology 'hypercube'", p, "dims", 8, 1, 26);
       },
       [](const Params& p, std::uint64_t) {
         return hypercube(require_vid("topology 'hypercube'", p, "dims", 8, 1, 26));
       },
       /*seeded=*/false,
       [](const Params& p) {
         const vid d = require_vid("topology 'hypercube'", p, "dims", 8, 1, 26);
         return Params{}.set("dims", static_cast<std::int64_t>(d));
       }});
  add({"debruijn",
       "binary de Bruijn network DB(d), 2^dims vertices",
       {{"dims", "10", "dimension d"}},
       [](const Params& p) {
         return vid{1} << require_vid("topology 'debruijn'", p, "dims", 10, 2, 26);
       },
       [](const Params& p, std::uint64_t) {
         return debruijn(require_vid("topology 'debruijn'", p, "dims", 10, 2, 26));
       },
       /*seeded=*/false,
       [](const Params& p) {
         const vid d = require_vid("topology 'debruijn'", p, "dims", 10, 2, 26);
         return Params{}.set("dims", static_cast<std::int64_t>(d));
       }});
  add({"shuffle_exchange",
       "shuffle-exchange network SE(d), 2^dims vertices",
       {{"dims", "10", "dimension d"}},
       [](const Params& p) {
         return vid{1} << require_vid("topology 'shuffle_exchange'", p, "dims", 10, 2, 26);
       },
       [](const Params& p, std::uint64_t) {
         return shuffle_exchange(require_vid("topology 'shuffle_exchange'", p, "dims", 10, 2, 26));
       },
       /*seeded=*/false,
       [](const Params& p) {
         const vid d = require_vid("topology 'shuffle_exchange'", p, "dims", 10, 2, 26);
         return Params{}.set("dims", static_cast<std::int64_t>(d));
       }});
  add({"butterfly",
       "butterfly BF(d): (dims+1)*2^dims vertices unwrapped, dims*2^dims wrapped",
       {{"dims", "6", "dimension d"}, {"wrapped", "0", "identify level d with level 0"}},
       [](const Params& p) {
         const vid d = require_vid("topology 'butterfly'", p, "dims", 6, 1, 22);
         const vid levels = p.get_bool("wrapped", false) ? d : d + 1;
         return levels * (vid{1} << d);
       },
       [](const Params& p, std::uint64_t) {
         return butterfly(require_vid("topology 'butterfly'", p, "dims", 6, 1, 22),
                          p.get_bool("wrapped", false))
             .graph;
       },
       /*seeded=*/false,
       [](const Params& p) {
         const vid d = require_vid("topology 'butterfly'", p, "dims", 6, 1, 22);
         const bool wrapped = p.get_bool("wrapped", false);
         return Params{}
             .set("dims", static_cast<std::int64_t>(d))
             .set("levels", static_cast<std::int64_t>(wrapped ? d : d + 1))
             .set("rows", static_cast<std::int64_t>(vid{1} << d))
             .set("wrapped", std::string(wrapped ? "1" : "0"));
       }});
  add({"multibutterfly",
       "multibutterfly with random splitters, (dims+1)*2^dims vertices (seeded)",
       {{"dims", "6", "log2(rows)"}, {"splitter_degree", "2", "random edges per half-block"}},
       [](const Params& p) {
         const vid d = require_vid("topology 'multibutterfly'", p, "dims", 6, 1, 16);
         return (d + 1) * (vid{1} << d);
       },
       [](const Params& p, std::uint64_t seed) {
         return multibutterfly(
                    require_vid("topology 'multibutterfly'", p, "dims", 6, 1, 16),
                    require_vid("topology 'multibutterfly'", p, "splitter_degree", 2, 1, 64),
                    seed)
             .graph;
       },
       /*seeded=*/true,
       [](const Params& p) {
         const vid d = require_vid("topology 'multibutterfly'", p, "dims", 6, 1, 16);
         return Params{}
             .set("dims", static_cast<std::int64_t>(d))
             .set("levels", static_cast<std::int64_t>(d + 1))
             .set("rows", static_cast<std::int64_t>(vid{1} << d));
       }});
  add({"random_regular",
       "random d-regular simple graph (permutation model, seeded)",
       {{"n", "256", "vertices (n*degree must be even)"}, {"degree", "4", "degree"}},
       [](const Params& p) {
         return require_vid("topology 'random_regular'", p, "n", 256, 2, 1 << 26);
       },
       [](const Params& p, std::uint64_t seed) {
         const vid n = require_vid("topology 'random_regular'", p, "n", 256, 2, 1 << 26);
         const vid d = require_vid("topology 'random_regular'", p, "degree", 4, 1, 1 << 16);
         FNE_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0 && d < n,
                     "topology 'random_regular': need n*degree even and degree < n");
         return random_regular(n, d, seed);
       },
       /*seeded=*/true, /*structure=*/{}});
  add({"erdos_renyi",
       "Erdős–Rényi G(n, p) (seeded)",
       {{"n", "256", "vertices"}, {"p", "0.02", "edge probability"}},
       [](const Params& p) {
         return require_vid("topology 'erdos_renyi'", p, "n", 256, 1, 1 << 26);
       },
       [](const Params& p, std::uint64_t seed) {
         return erdos_renyi(require_vid("topology 'erdos_renyi'", p, "n", 256, 1, 1 << 26),
                            require_prob("topology 'erdos_renyi'", p, "p", 0.02), seed);
       },
       /*seeded=*/true, /*structure=*/{}});
  add({"can",
       "CAN overlay zone-adjacency graph, `peers` vertices (seeded)",
       {{"peers", "256", "number of peers/zones"},
        {"dims", "2", "torus dimensions"},
        {"max_depth", "20", "split resolution (bits per dimension)"}},
       [](const Params& p) {
         return require_vid("topology 'can'", p, "peers", 256, 1, 1 << 26);
       },
       [](const Params& p, std::uint64_t seed) {
         return can_overlay(require_vid("topology 'can'", p, "peers", 256, 1, 1 << 26),
                            require_vid("topology 'can'", p, "dims", 2, 1, 10), seed,
                            require_vid("topology 'can'", p, "max_depth", 20, 1, 30))
             .graph;
       },
       /*seeded=*/true, /*structure=*/{}});
  add({"chain_expander",
       "H(G, k): every edge of a random base expander replaced by a k-chain "
       "(seeded); base_n + k * (base_n*base_degree/2) vertices",
       {{"base_n", "32", "base expander vertices"},
        {"base_degree", "4", "base expander degree"},
        {"k", "4", "chain length (even, >= 2)"}},
       [](const Params& p) {
         const vid bn = require_vid("topology 'chain_expander'", p, "base_n", 32, 2, 1 << 16);
         const vid bd = require_vid("topology 'chain_expander'", p, "base_degree", 4, 1, 64);
         const vid k = require_vid("topology 'chain_expander'", p, "k", 4, 2, 1 << 12);
         FNE_REQUIRE(k % 2 == 0, "topology 'chain_expander': k must be even");
         // The pairing model keeps exactly base_n*base_degree/2 edges
         // (duplicates force a resample, not a smaller graph).
         const std::uint64_t edges = std::uint64_t{bn} * bd / 2;
         return checked_n("topology 'chain_expander'", bn + std::uint64_t{k} * edges);
       },
       [](const Params& p, std::uint64_t seed) {
         const vid bn = require_vid("topology 'chain_expander'", p, "base_n", 32, 2, 1 << 16);
         const vid bd = require_vid("topology 'chain_expander'", p, "base_degree", 4, 1, 64);
         const vid k = require_vid("topology 'chain_expander'", p, "k", 4, 2, 1 << 12);
         return chain_replace(random_regular(bn, bd, seed), k).graph;
       },
       /*seeded=*/true, /*structure=*/{}});
  add({"complete",
       "complete graph K_n",
       {{"n", "64", "vertices"}},
       [](const Params& p) { return require_vid("topology 'complete'", p, "n", 64, 1, 4096); },
       [](const Params& p, std::uint64_t) {
         return complete_graph(require_vid("topology 'complete'", p, "n", 64, 1, 4096));
       },
       /*seeded=*/false, /*structure=*/{}});
  add({"cycle",
       "cycle C_n",
       {{"n", "64", "vertices"}},
       [](const Params& p) { return require_vid("topology 'cycle'", p, "n", 64, 3, 1 << 26); },
       [](const Params& p, std::uint64_t) {
         return cycle_graph(require_vid("topology 'cycle'", p, "n", 64, 3, 1 << 26));
       },
       /*seeded=*/false, /*structure=*/{}});
  add({"path",
       "path P_n",
       {{"n", "64", "vertices"}},
       [](const Params& p) { return require_vid("topology 'path'", p, "n", 64, 1, 1 << 26); },
       [](const Params& p, std::uint64_t) {
         return path_graph(require_vid("topology 'path'", p, "n", 64, 1, 1 << 26));
       },
       /*seeded=*/false, /*structure=*/{}});
  add({"star",
       "star S_n (vertex 0 is the hub)",
       {{"n", "64", "vertices"}},
       [](const Params& p) { return require_vid("topology 'star'", p, "n", 64, 2, 1 << 26); },
       [](const Params& p, std::uint64_t) {
         return star_graph(require_vid("topology 'star'", p, "n", 64, 2, 1 << 26));
       },
       /*seeded=*/false, /*structure=*/{}});
  add({"barbell",
       "two K_half cliques joined by one edge, 2*half vertices (paper §1.3)",
       {{"half", "16", "clique size"}},
       [](const Params& p) {
         return 2 * require_vid("topology 'barbell'", p, "half", 16, 2, 2048);
       },
       [](const Params& p, std::uint64_t) {
         return barbell_graph(require_vid("topology 'barbell'", p, "half", 16, 2, 2048));
       },
       /*seeded=*/false, /*structure=*/{}});
  // Real graphs: a binary CSR file produced by tools/edgelist2csr
  // (DESIGN.md §14).  Deterministic by definition (seeded=false), and the
  // cache salt folds the file's content checksum into every EngineCache
  // key so re-converting a dataset in place invalidates cached graphs.
  add({"file",
       "real graph from a binary CSR file (tools/edgelist2csr, DESIGN.md §14)",
       {{"path", "", "path to the .csr file (required)"},
        {"mmap", "1", "map the payload (0: buffered read; identical results)"}},
       [](const Params& p) {
         const std::string path = file_topology_path(p);
         const auto image = FileImageCache::instance().refresh(path, file_topology_mode(p));
         return checked_n("topology 'file'", image->header().n);
       },
       [](const Params& p, std::uint64_t) {
         const std::string path = file_topology_path(p);
         // Decode the image the most recent key computation fingerprinted
         // (FileImageCache): salt and graph must come from the same
         // bytes.  A direct build with no prior key opens fresh.
         if (const auto image = FileImageCache::instance().pinned(path)) {
           return image->to_graph();
         }
         return CsrFile::open(path, file_topology_mode(p)).to_graph();
       },
       /*seeded=*/false, /*structure=*/{},
       /*cache_salt=*/
       [](const Params& p) {
         const std::string path = file_topology_path(p);
         const auto image = FileImageCache::instance().refresh(path, file_topology_mode(p));
         return path + "#" + std::to_string(image->header().checksum);
       }});
}

// ---------------------------------------------------------------------------
// FaultModelRegistry
// ---------------------------------------------------------------------------

FaultModelRegistry& FaultModelRegistry::instance() {
  static FaultModelRegistry registry;
  return registry;
}

void FaultModelRegistry::add(FaultModelEntry entry) {
  FNE_REQUIRE(static_cast<bool>(entry.build), "fault model '" + entry.name + "' needs a factory");
  insert(std::move(entry));
}

VertexSet FaultModelRegistry::build(const std::string& name, const Graph& g,
                                    const Params& params, std::uint64_t seed) const {
  const FaultModelEntry& entry = at(name, params);
  VertexSet alive = entry.build(g, params, seed);
  FNE_REQUIRE(alive.universe_size() == g.num_vertices(),
              "fault model '" + name + "' returned a mask over the wrong universe");
  return alive;
}

FaultModelRegistry::FaultModelRegistry() : Registry("fault model") {
  add({"none",
       "no faults: everything alive (baseline rows)",
       {},
       [](const Graph& g, const Params&, std::uint64_t) {
         return VertexSet::full(g.num_vertices());
       },
       /*monotone_params=*/{}});
  add({"random",
       "each node fails independently with probability p (paper §3)",
       {{"p", "0.1", "per-node fault probability"}},
       [](const Graph& g, const Params& p, std::uint64_t seed) {
         return random_node_faults(g, require_prob("fault model 'random'", p, "p", 0.1), seed);
       },
       // One uniform per vertex compared against p: under a fixed seed,
       // raising p only ADDS faults, so alive(p_hi) ⊆ alive(p_lo).
       /*monotone_params=*/{"p"}});
  add({"random_exact",
       "exactly `budget` (or frac*n) uniform random node faults",
       kBudgetParams,
       [](const Graph& g, const Params& p, std::uint64_t seed) {
         return random_exact_node_faults(g, resolve_budget("fault model 'random_exact'", g, p),
                                         seed);
       },
       /*monotone_params=*/{}});
  add({"high_degree",
       "adversary fails the `budget` highest-degree vertices (hub attack)",
       kBudgetParams,
       [](const Graph& g, const Params& p, std::uint64_t) {
         const AttackResult a =
             high_degree_attack(g, resolve_budget("fault model 'high_degree'", g, p));
         return VertexSet::full(g.num_vertices()) - a.faults;
       },
       // A prefix of one stable degree order: a larger budget fails a
       // SUPERSET of the vertices, so the alive masks nest.  (random_exact
       // is NOT declared: Floyd's sampling reshuffles with the budget.)
       /*monotone_params=*/{"budget", "frac"}});
  add({"sweep_cut",
       "adversary fails node boundaries of low-expansion sweep cuts within budget",
       [] {
         std::vector<ParamSpec> ps = kBudgetParams;
         ps.push_back({"exact_limit", "14", "exhaustive cut search below this size"});
         return ps;
       }(),
       [](const Graph& g, const Params& p, std::uint64_t seed) {
         CutFinderOptions copts;
         copts.exact_limit =
             require_vid("fault model 'sweep_cut'", p, "exact_limit", 14, 0, 24);
         copts.seed = seed;
         const AttackResult a =
             sweep_cut_attack(g, resolve_budget("fault model 'sweep_cut'", g, p), copts);
         return VertexSet::full(g.num_vertices()) - a.faults;
       },
       /*monotone_params=*/{}});
  add({"separator",
       "Menger adversary: exact minimum s-t vertex separators within budget",
       kBudgetParams,
       [](const Graph& g, const Params& p, std::uint64_t seed) {
         const AttackResult a =
             separator_attack(g, resolve_budget("fault model 'separator'", g, p), seed);
         return VertexSet::full(g.num_vertices()) - a.faults;
       },
       /*monotone_params=*/{}});
  add({"bisection",
       "Theorem 2.5 adversary: recursive bisection until pieces < epsilon*n",
       {{"epsilon", "0.05", "stop when all pieces are below epsilon*n"},
        {"exact_limit", "14", "exhaustive cut search below this size"}},
       [](const Graph& g, const Params& p, std::uint64_t seed) {
         BisectionOptions opts;
         opts.epsilon = require_prob("fault model 'bisection'", p, "epsilon", 0.05);
         opts.cut_options.exact_limit =
             require_vid("fault model 'bisection'", p, "exact_limit", 14, 0, 24);
         opts.cut_options.seed = seed;
         const AttackResult a = bisection_attack(g, opts);
         return VertexSet::full(g.num_vertices()) - a.faults;
       },
       /*monotone_params=*/{}});
}

}  // namespace fne
