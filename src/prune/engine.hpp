// PruneEngine: the incremental driver of the Prune/Prune2 cull loops.
//
// The stateless loops (prune_reference / prune2_reference) recompute
// connected components, alive degrees and a cold-started Fiedler solve
// from scratch on every cull iteration, even though removing one set S
// only perturbs the graph locally.  The engine threads persistent state
// through the loop instead (see DESIGN.md §5):
//
//   * components — labels are maintained incrementally: culling S kills
//     the component(s) it touches and relabels only their remnants via a
//     BFS seeded at S's alive boundary, instead of a full-graph scan;
//   * alive degrees — decremented along S's boundary edges, feeding
//     CutState construction without its O(n + m) recount;
//   * Fiedler state — the previous iteration's eigenvector is cached in
//     the workspace; fast mode warm-starts the next solve from it
//     (restricted to the survivors and re-deflated) or skips the solve
//     entirely when sweeping the stale ordering already exposes a
//     violating set;
//   * allocations — BFS queues, sweep orderings and the Krylov basis are
//     pooled in an ExpansionWorkspace owned by the engine.
//
// It takes the one prune configuration, PruneEngineOptions
// (prune/prune.hpp).  By default the engine is bit-for-bit identical to
// the stateless reference loops: same culled sets, same order, same
// survivors.  The one fast switch (finder.fast) trades that
// replayability for speed while preserving certified validity — every
// culled set still satisfied its culling condition at cull time, which
// is all the paper's theorems need (prune/verify.hpp replays either kind
// of trace).
#pragma once

#include <optional>

#include "expansion/workspace.hpp"
#include "prune/prune.hpp"

namespace fne {

/// Cumulative telemetry across every run() of one engine (ROADMAP:
/// "stale-sweep hit-rate telemetry ... so benches can report how many
/// eigensolves fast mode actually skipped").  Counters only ever grow;
/// diff two snapshots to attribute work to a single run.
struct EngineStats {
  std::uint64_t runs = 0;
  std::uint64_t iterations = 0;          ///< cull iterations across runs
  std::uint64_t eigensolves = 0;         ///< Fiedler solves actually performed
  std::uint64_t stale_sweeps = 0;        ///< stale-ordering sweeps attempted
  std::uint64_t stale_sweep_hits = 0;    ///< ...that exposed a set (solve skipped)
  std::uint64_t disconnected_culls = 0;  ///< culls served from incremental labels
  std::uint64_t relabel_bfs_calls = 0;   ///< remnant relabels after a cull
  std::uint64_t relabel_bfs_vertices = 0;  ///< total vertices those BFS touched

  /// Snapshot difference: `after - before` attributes work to the runs
  /// between the two snapshots.
  [[nodiscard]] friend EngineStats operator-(const EngineStats& after,
                                             const EngineStats& before) {
    return {after.runs - before.runs,
            after.iterations - before.iterations,
            after.eigensolves - before.eigensolves,
            after.stale_sweeps - before.stale_sweeps,
            after.stale_sweep_hits - before.stale_sweep_hits,
            after.disconnected_culls - before.disconnected_culls,
            after.relabel_bfs_calls - before.relabel_bfs_calls,
            after.relabel_bfs_vertices - before.relabel_bfs_vertices};
  }
  EngineStats& operator+=(const EngineStats& o) {
    runs += o.runs;
    iterations += o.iterations;
    eigensolves += o.eigensolves;
    stale_sweeps += o.stale_sweeps;
    stale_sweep_hits += o.stale_sweep_hits;
    disconnected_culls += o.disconnected_culls;
    relabel_bfs_calls += o.relabel_bfs_calls;
    relabel_bfs_vertices += o.relabel_bfs_vertices;
    return *this;
  }
};

class PruneEngine {
 public:
  /// An engine is bound to a graph and an expansion kind (Node = Prune,
  /// Edge = Prune2) and may be reused across runs; its workspace survives
  /// between runs so repeated sweeps (e.g. over fault probabilities)
  /// amortize every buffer.
  PruneEngine(const Graph& g, ExpansionKind kind);

  /// Run the cull loop to completion on `alive` with threshold
  /// alpha * epsilon.  Matches prune()/prune2() argument semantics.
  [[nodiscard]] PruneResult run(const VertexSet& alive, double alpha, double epsilon,
                                const PruneEngineOptions& options = {});

  [[nodiscard]] ExpansionWorkspace& workspace() noexcept { return ws_; }

  /// Forget the cross-run warm state (the cached Fiedler ordering), making
  /// the next run() a pure function of (graph, alive, options) — the
  /// lease-reset hook of the process-wide EngineCache (DESIGN.md §7,
  /// §8) behind thread-count-independent campaigns: called on every lease,
  /// it makes a cache-served engine indistinguishable from a fresh one,
  /// so cache-hit patterns cannot leak into results.  Deterministic mode
  /// never reads the cache, so this is a no-op for reference-parity runs.
  void drop_warm_state() noexcept { ws_.fiedler_valid = false; }

  /// Cumulative counters since construction (never reset by run()).
  [[nodiscard]] const EngineStats& stats() const noexcept { return stats_; }

  /// Resident heap footprint: the pooled workspace plus the engine's own
  /// incremental-label state.  Capacities, not sizes — this is what an
  /// idle engine pins while it sits in the EngineCache, and what the
  /// cache's byte budget evicts against (DESIGN.md §13).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return sizeof(PruneEngine) + ws_.memory_bytes() + alive_.memory_bytes() +
           comp_of_.capacity() * sizeof(std::uint32_t) + comps_.capacity() * sizeof(CompRecord) +
           bfs_stack_.capacity() * sizeof(vid);
  }

 private:
  struct CompRecord {
    vid size = 0;
    vid min_v = kInvalidVertex;
    bool dead = false;
  };

  void bootstrap(const VertexSet& alive);
  [[nodiscard]] std::optional<CutWitness> disconnected_witness(vid alive_count) const;
  void apply_cull(const VertexSet& s);

  const Graph* g_;
  ExpansionKind kind_;
  ExpansionWorkspace ws_;
  EngineStats stats_;
  VertexSet alive_;
  std::vector<std::uint32_t> comp_of_;  ///< kUnreached for dead vertices
  std::vector<CompRecord> comps_;       ///< append-only; dead records stay
  std::size_t live_comps_ = 0;
  std::vector<vid> bfs_stack_;
};

}  // namespace fne
