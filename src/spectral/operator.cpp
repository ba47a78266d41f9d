#include "spectral/operator.hpp"

#include <algorithm>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace fne {

void SubCsr::build(const Graph& g, const VertexSet& alive) {
  FNE_REQUIRE(alive.universe_size() == g.num_vertices(), "mask/graph size mismatch");
  const vid n = g.num_vertices();

  // Invalidate the previous mapping.  Only the previous vertices can hold
  // stale entries (remove() keeps the everything-else-is-invalid
  // invariant), so cleanup is O(previous dim) unless the universe changed.
  if (to_sub.size() == n) {
    for (vid v : verts) to_sub[v] = kInvalidVertex;
  } else {
    to_sub.assign(n, kInvalidVertex);
  }

  verts.clear();
  alive.for_each([&](vid v) { verts.push_back(v); });
  for (vid i = 0; i < static_cast<vid>(verts.size()); ++i) to_sub[verts[i]] = i;

  const std::size_t k = verts.size();
  offsets.resize(k + 1);
  adj.clear();
  deg.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    offsets[i] = adj.size();
    for (vid w : g.neighbors(verts[i])) {
      const vid j = to_sub[w];
      if (j != kInvalidVertex) adj.push_back(j);
    }
    deg[i] = static_cast<double>(adj.size() - offsets[i]);
  }
  offsets[k] = adj.size();
  valid = false;  // the owner decides when the structure is authoritative
}

void SubCsr::remove(const VertexSet& culled) {
  // 1. Invalidate the culled rows in the mapping; to_sub[verts[i]] ==
  //    kInvalidVertex is then the "row i is gone" test below.
  culled.for_each([&](vid v) {
    FNE_REQUIRE(v < to_sub.size() && to_sub[v] != kInvalidVertex,
                "SubCsr::remove: vertex not present");
    to_sub[v] = kInvalidVertex;
  });

  // 2. Old sub index -> new sub index for the survivors.
  const std::size_t k = verts.size();
  remap_.resize(k);
  vid next = 0;
  for (std::size_t i = 0; i < k; ++i) {
    remap_[i] = to_sub[verts[i]] != kInvalidVertex ? next++ : kInvalidVertex;
  }

  // 3. Compact rows, arcs and degrees in place (write pos <= read pos).
  //    Survivor order is preserved, so verts stays ascending and each row
  //    keeps its ascending neighbor order — the parity invariants.
  std::size_t write_arc = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const vid ni = remap_[i];
    if (ni == kInvalidVertex) continue;
    const std::size_t row_start = write_arc;
    for (std::size_t a = offsets[i]; a < offsets[i + 1]; ++a) {
      const vid nj = remap_[adj[a]];
      if (nj != kInvalidVertex) adj[write_arc++] = nj;
    }
    offsets[ni] = row_start;
    deg[ni] = static_cast<double>(write_arc - row_start);
    verts[ni] = verts[i];
    to_sub[verts[ni]] = ni;
  }
  verts.resize(next);
  deg.resize(next);
  offsets.resize(next + 1);
  offsets[next] = write_arc;
  adj.resize(write_arc);
}

namespace {

/// Rows per block of the parallel apply loop.
constexpr std::size_t kApplyRowBlock = 1024;

/// y[i] = deg[i]·x[i] − Σ x[adj[a]] for the rows [lo, hi).
///
/// Out of line and 64-byte aligned: this row loop is the hottest code of
/// the spectral layer, and its speed depends on where it falls within a
/// cache line.  Inlined into the OpenMP body, its placement followed how
/// much code the link put before this file: deleting an unrelated source
/// file moved it by 32 bytes, and the certify benchmark (4-vCPU Xeon,
/// GCC 12) ran ~7% slower.  The alignment ties the placement to this
/// function's own code.
[[gnu::noinline, gnu::aligned(64)]] void laplacian_rows(const std::size_t* offsets,
                                                        const vid* adj, const double* deg,
                                                        const double* xp, double* yp,
                                                        std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    // Gather with the shared kSimdLanes fold (kernels.hpp): lane blocks
    // first, then the sub-lane tail sequentially.  Rows shorter than
    // kSimdLanes — every row of a 2D mesh — take the pure tail path, so
    // the fold only reassociates rows long enough to profit from it.
    // MaskedLaplacian::apply mirrors the exact same tree to preserve
    // bit-parity on every mask.
    const std::size_t begin = offsets[i];
    const std::size_t end = offsets[i + 1];
    const std::size_t vec_end = begin + ((end - begin) / kSimdLanes) * kSimdLanes;
    double lane[kSimdLanes] = {0.0};
    std::size_t a = begin;
    for (; a < vec_end; a += kSimdLanes) {
      FNE_PRAGMA_SIMD
      for (std::size_t l = 0; l < kSimdLanes; ++l) lane[l] += xp[adj[a + l]];
    }
    double acc = 0.0;
    for (std::size_t l = 0; l < kSimdLanes; ++l) acc += lane[l];
    for (; a < end; ++a) acc += xp[adj[a]];
    yp[i] = deg[i] * xp[i] - acc;
  }
}

}  // namespace

void SubCsrLaplacian::apply(const std::vector<double>& x, std::vector<double>& y) const {
  FNE_REQUIRE(x.size() == dim() && y.size() == dim(), "operator dimension mismatch");
  const std::size_t k = s_->dim();
  const std::size_t* offsets = s_->offsets.data();
  const vid* adj = s_->adj.data();
  const double* deg = s_->deg.data();
  const double* xp = x.data();
  double* yp = y.data();
  // Each row writes only y[i] and reads its arcs in storage order: the
  // partition of rows across threads cannot change a single bit.
  const std::size_t blocks = (k + kApplyRowBlock - 1) / kApplyRowBlock;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (k >= kSpectralParallelDim)
#endif
  for (std::size_t b = 0; b < blocks; ++b) {
    laplacian_rows(offsets, adj, deg, xp, yp, b * kApplyRowBlock,
                   std::min(k, (b + 1) * kApplyRowBlock));
  }
}

double gershgorin_upper_bound(const SubCsr& s) {
  // Laplacian row i has diagonal deg[i] and off-diagonal radius deg[i]
  // (all entries are -1), so every Gershgorin disc is [0, 2·deg[i]].
  double max_deg = 0.0;
  for (const double d : s.deg) max_deg = std::max(max_deg, d);
  return 2.0 * max_deg;
}

}  // namespace fne
