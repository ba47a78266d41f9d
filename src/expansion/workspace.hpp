// Pooled state threaded through the cut-finder portfolio.
//
// One find_violating_set call allocates BFS queues, sweep orderings,
// CutState arrays and a Krylov basis; a prune run makes hundreds of such
// calls over slowly-shrinking alive masks.  ExpansionWorkspace owns all of
// those buffers so the cull loop is allocation-free after warm-up, and it
// carries the two pieces of cross-iteration state the PruneEngine exploits:
// the previous Fiedler vector (warm start / stale-order sweep) and the
// incrementally-maintained alive-degree table (see DESIGN.md §5).
//
// A workspace never changes results by itself: with CutFinderOptions::fast
// left off, threading a workspace through the portfolio is bit-for-bit
// equivalent to the stateless path.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.hpp"
#include "core/vertex_set.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/operator.hpp"

namespace fne {

/// Telemetry accumulated by the portfolio while a workspace is threaded
/// through it (zeroed by reset()).  The PruneEngine folds these into its
/// cumulative EngineStats after every run; benches report them to show
/// how much work fast mode actually skipped.
struct WorkspaceCounters {
  std::uint64_t eigensolves = 0;        ///< Fiedler solves performed (staged stages count)
  std::uint64_t stale_sweeps = 0;       ///< stale-ordering sweeps attempted
  std::uint64_t stale_sweep_hits = 0;   ///< ...that found a violating set (solve skipped)
};

class ExpansionWorkspace {
 public:
  ExpansionWorkspace() = default;

  /// Size every buffer for graphs over `n` vertices and invalidate the
  /// per-run caches (degree table, connectivity hint, counters).  The
  /// Fiedler cache survives when the universe is unchanged so repeated
  /// runs (fault sweeps, churn rounds) can reuse the previous run's
  /// ordering in fast mode.  Idempotent; call once per (graph, run).
  void reset(vid n);

  [[nodiscard]] vid universe_size() const noexcept { return universe_; }

  /// Resident heap footprint of every pooled buffer (capacities).  This —
  /// via PruneEngine::memory_bytes — is what the EngineCache charges an
  /// idle engine against its byte budget (DESIGN.md §13).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (order.capacity() + queue.capacity() + deg_alive.capacity()) * sizeof(vid) +
           lanczos.memory_bytes() + fiedler_vec.capacity() * sizeof(double) +
           subcsr.memory_bytes() + stamp.capacity() * sizeof(std::uint32_t);
  }

  /// Begin a new stamped visit pass; mark/seen work against the returned
  /// epoch.  Handles counter wrap by clearing the stamp array.
  std::uint32_t next_epoch() {
    if (++epoch == 0) {
      stamp.assign(stamp.size(), 0);
      epoch = 1;
    }
    return epoch;
  }
  void mark(vid v) noexcept { stamp[v] = epoch; }
  [[nodiscard]] bool marked(vid v) const noexcept { return stamp[v] == epoch; }

  // --- pooled buffers (contents are scratch between uses) ---
  std::vector<vid> order;   ///< sweep orderings
  std::vector<vid> queue;   ///< BFS worklists
  LanczosScratch lanczos;   ///< Krylov basis pool

  // --- cross-iteration caches (owned by PruneEngine when one is driving) ---
  /// Most recent Fiedler vector, per original vertex id.  Valid entries
  /// cover the alive mask of the solve that produced it; culled vertices
  /// simply stop being referenced.  This is the ONE channel through which
  /// an engine's history can reach a later run's results (fast mode only)
  /// — exactly what PruneEngine::drop_warm_state() severs when the
  /// EngineCache leases the engine to a new job (DESIGN.md §8).
  std::vector<double> fiedler_vec;
  bool fiedler_valid = false;

  /// Alive-degree per vertex (meaningful for alive vertices only).  When
  /// valid, CutState construction skips its O(n + m) degree recount.
  std::vector<vid> deg_alive;
  bool deg_alive_valid = false;

  /// Hint set by the engine: the current alive mask is known connected, so
  /// find_violating_set may skip its full component scan.
  bool alive_connected = false;

  /// Compact sub-CSR of the current alive subgraph (DESIGN.md §7).  The
  /// PruneEngine builds it at bootstrap, shrinks it after every cull
  /// (SubCsr::remove) and sets subcsr.valid while it is authoritative for
  /// the mask find_violating_set is being called with; fiedler_sweep then
  /// hands it to the eigensolve instead of rebuilding.  Like
  /// deg_alive_valid, the flag is cleared at the end of every engine run.
  SubCsr subcsr;

  /// Telemetry (see WorkspaceCounters); incremented by sweep/cut-finder
  /// code paths only when a workspace is present.
  WorkspaceCounters counters;

 private:
  vid universe_ = 0;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
};

}  // namespace fne
