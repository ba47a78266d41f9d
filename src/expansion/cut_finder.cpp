#include "expansion/cut_finder.hpp"

#include <algorithm>

#include "core/subgraph.hpp"
#include "core/traversal.hpp"
#include "expansion/bfs_ball.hpp"
#include "expansion/exact.hpp"
#include "expansion/local_search.hpp"
#include "expansion/sweep.hpp"
#include "spectral/fiedler.hpp"
#include "util/require.hpp"

namespace fne {

namespace {

/// Edge-mode candidates must be connected.  A disconnected S still
/// contains a connected violating piece: components of S have no edges
/// between them, so cut(S) = Σ cut(C_i) and |S| = Σ |C_i|, hence
/// min_i cut(C_i)/|C_i| <= cut(S)/|S|.
CutWitness best_connected_piece(const Graph& g, const VertexSet& alive, const CutWitness& w) {
  const Components comps = connected_components(g, w.side);
  if (comps.count() <= 1) return w;
  // Components of S have no edges between them, so each piece's cut to
  // alive \ piece equals its cut to alive \ S.  One pass over S bucketing
  // boundary edges by label replaces the old per-component rescan of the
  // whole side (O(components · n)).
  std::vector<std::size_t> cut_by_label(comps.count(), 0);
  w.side.for_each([&](vid u) {
    const std::uint32_t c = comps.label[u];
    for (vid v : g.neighbors(u)) {
      if (alive.test(v) && !w.side.test(v)) ++cut_by_label[c];
    }
  });
  CutWitness best;
  std::uint32_t best_label = 0;
  for (std::uint32_t c = 0; c < comps.sizes.size(); ++c) {
    const double ratio =
        static_cast<double>(cut_by_label[c]) / static_cast<double>(comps.sizes[c]);
    if (ratio < best.expansion) {
      best.expansion = ratio;
      best.boundary = cut_by_label[c];
      best_label = c;
    }
  }
  best.side = VertexSet(g.num_vertices());
  w.side.for_each([&](vid v) {
    if (comps.label[v] == best_label) best.side.set(v);
  });
  return best;
}

/// Re-evaluate a witness under the *per-|S|* threshold semantics of Prune:
/// both algorithms compare the boundary to threshold·|S| where S is the
/// small side, so the ratio must use |S|, not min{|S|, rest}.
double prune_ratio(const Graph& g, const VertexSet& alive, const VertexSet& side,
                   ExpansionKind kind, std::size_t* boundary_out) {
  const vid size = side.count();
  if (size == 0) return std::numeric_limits<double>::infinity();
  std::size_t boundary = 0;
  if (kind == ExpansionKind::Node) {
    boundary = node_boundary_size(g, alive, side);
  } else {
    boundary = edge_boundary_size(g, alive, side);
  }
  if (boundary_out != nullptr) *boundary_out = boundary;
  return static_cast<double>(boundary) / static_cast<double>(size);
}

}  // namespace

std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                             ExpansionKind kind, double threshold,
                                             const CutFinderOptions& options,
                                             ExpansionWorkspace* ws) {
  const vid k = alive.count();
  if (k < 2) return std::nullopt;
  FNE_REQUIRE(threshold >= 0.0, "threshold must be non-negative");

  auto accept = [&](CutWitness w) -> std::optional<CutWitness> {
    if (w.side.empty() || 2 * w.side.count() > k) return std::nullopt;
    if (kind == ExpansionKind::Edge && !is_connected_subset(g, alive, w.side)) {
      w = best_connected_piece(g, alive, w);
      if (w.side.empty() || 2 * w.side.count() > k) return std::nullopt;
    }
    std::size_t boundary = 0;
    const double r = prune_ratio(g, alive, w.side, kind, &boundary);
    if (r <= threshold) {
      w.expansion = r;
      w.boundary = boundary;
      return w;
    }
    return std::nullopt;
  };

  // 0. Stale-order sweep (fast mode): the cached Fiedler vector of a
  //    slightly larger alive mask usually still orders the survivors well
  //    enough to expose a violating prefix; a hit costs one sweep and
  //    skips the eigensolve entirely.  Every candidate is validated by
  //    accept() against real boundaries, so a stale ordering can never
  //    produce an invalid cull — only a different (still certified) one.
  if (ws != nullptr && options.fast && ws->fiedler_valid &&
      ws->fiedler_vec.size() == g.num_vertices()) {
    SweepOptions sopts;
    sopts.early_exit_threshold = threshold;
    sopts.ws = ws;
    ++ws->counters.stale_sweeps;
    if (auto hit = accept(sweep_by_values(g, alive, kind, ws->fiedler_vec, sopts))) {
      ++ws->counters.stale_sweep_hits;
      return hit;
    }
  }

  // 1. Disconnected subgraph: everything but the largest component has an
  //    empty boundary (a violation for any threshold >= 0).  The engine
  //    maintains components incrementally and sets alive_connected when
  //    the scan is provably a no-op.
  if (ws == nullptr || !ws->alive_connected) {
    const Components comps = connected_components(g, alive);
    if (comps.count() > 1) {
      const std::uint32_t keep = comps.largest_label();
      if (kind == ExpansionKind::Node) {
        VertexSet rest(g.num_vertices());
        alive.for_each([&](vid v) {
          if (comps.label[v] != keep) rest.set(v);
        });
        // The union of non-largest components is <= half the alive set
        // (the largest component is at least as big as any other, so if
        // the rest exceeded half, one of its components would have to
        // exceed the largest).  Guard anyway for the pathological tie.
        if (2 * rest.count() <= k) {
          return CutWitness{std::move(rest), 0.0, 0};
        }
      }
      // Edge mode (or the pathological tie): return one smallest component.
      std::uint32_t smallest = keep == 0 && comps.sizes.size() > 1 ? 1 : 0;
      for (std::uint32_t c = 0; c < comps.sizes.size(); ++c) {
        if (c != keep && comps.sizes[c] < comps.sizes[smallest]) smallest = c;
      }
      if (smallest != keep && 2 * comps.sizes[smallest] <= k) {
        VertexSet piece(g.num_vertices());
        alive.for_each([&](vid v) {
          if (comps.label[v] == smallest) piece.set(v);
        });
        return CutWitness{std::move(piece), 0.0, 0};
      }
    }
  }

  // 2. Exhaustive for small subgraphs: definitive answer.
  if (options.use_exact && k <= options.exact_limit && k <= kExactExpansionLimit) {
    const CutWitness w = exact_expansion(g, alive, kind);
    // exact_expansion minimizes boundary/min-side which equals the Prune
    // ratio on the small side it reports.
    if (auto hit = accept(w)) return hit;
    if (kind == ExpansionKind::Node) return std::nullopt;  // exact scan is complete
    // Edge kind: the exact scan minimizes over all S (connected or not);
    // accept() above reduced it to its best connected piece.  If even that
    // piece fails the threshold, a connected minimizer could still exist
    // but cannot beat the unrestricted minimum, so only ratios in
    // [min, threshold] remain possible; fall through to heuristics.
  }

  const double sweep_exit =
      options.fast ? threshold : std::numeric_limits<double>::infinity();

  // 3. Fiedler sweep.  The sweep result doubles as the near-miss seed for
  //    step 5, so the (deterministic) eigensolve runs exactly once.
  std::optional<CutWitness> spectral_near;
  if (options.use_spectral) {
    FiedlerSweepOptions fso;
    fso.seed = options.seed;
    fso.ws = ws;
    fso.warm_start = options.fast;
    fso.early_exit_threshold = sweep_exit;
    spectral_near = fiedler_sweep(g, alive, kind, fso);
    if (auto hit = accept(*spectral_near)) {
      return hit;
    }
  }

  // 4. BFS-ball sweeps.
  if (options.use_balls) {
    SweepOptions sopts;
    sopts.ws = ws;
    sopts.early_exit_threshold = sweep_exit;
    if (auto hit = accept(
            best_ball_cut(g, alive, kind, options.ball_sources, options.seed, sopts))) {
      return hit;
    }
  }

  // 5. Local refinement of the spectral near-miss.
  if (spectral_near.has_value()) {
    CutWitness near = refine_cut(g, alive, std::move(*spectral_near), kind,
                                 options.refine_passes);
    if (auto hit = accept(near)) return hit;
  }

  return std::nullopt;
}

std::optional<CutWitness> find_violating_set(const Graph& g, const VertexSet& alive,
                                             ExpansionKind kind, double threshold,
                                             const CutFinderOptions& options) {
  return find_violating_set(g, alive, kind, threshold, options, nullptr);
}

}  // namespace fne
