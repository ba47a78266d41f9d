#include "expansion/workspace.hpp"

namespace fne {

void ExpansionWorkspace::reset(vid n) {
  universe_ = n;
  order.clear();
  order.reserve(n);
  queue.clear();
  queue.reserve(n);
  if (stamp.size() != n) {
    stamp.assign(n, 0);
    epoch = 0;
  }
  // The cached Fiedler vector survives reset() as long as the universe is
  // unchanged: an engine rerunning on a perturbed alive mask (fault
  // sweeps, churn rounds) may stale-sweep / warm-start from the previous
  // run's ordering.  Deterministic mode never reads it (the fast switch
  // gates every consumer), so preservation cannot change
  // reference results; fast-mode candidates are validated against real
  // boundaries regardless of how stale the ordering is.
  if (static_cast<vid>(fiedler_vec.size()) != n) {
    fiedler_vec.assign(n, 0.0);
    fiedler_valid = false;
  }
  deg_alive.assign(n, 0);
  deg_alive_valid = false;
  alive_connected = false;
  subcsr.valid = false;  // per-run: the engine rebuilds it in bootstrap
  counters = WorkspaceCounters{};
}

}  // namespace fne
