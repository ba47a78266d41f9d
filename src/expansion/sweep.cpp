#include "expansion/sweep.hpp"

#include <algorithm>
#include <numeric>

#include "expansion/cut_state.hpp"
#include "spectral/fiedler.hpp"
#include "util/require.hpp"

namespace fne {

CutWitness sweep_cut(const Graph& g, const VertexSet& alive, const std::vector<vid>& order,
                     ExpansionKind kind, const SweepOptions& options) {
  FNE_REQUIRE(order.size() == alive.count(), "order must enumerate the alive set");
  const std::vector<vid>* deg_hint =
      options.ws != nullptr && options.ws->deg_alive_valid ? &options.ws->deg_alive : nullptr;
  CutState state(g, alive, deg_hint);
  const vid k = state.total_alive();

  double best = std::numeric_limits<double>::infinity();
  std::size_t best_prefix = 0;
  bool best_is_suffix = false;
  long long best_boundary = 0;

  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    state.add(order[i]);
    const double r = state.ratio(kind);
    if (r < best) {
      best = r;
      best_prefix = i + 1;
      best_is_suffix = false;
      best_boundary = kind == ExpansionKind::Node ? state.out_boundary() : state.cut();
    }
    if (kind == ExpansionKind::Node) {
      // When the prefix is the *large* side the candidate set is the suffix.
      const double rc = state.complement_node_ratio();
      if (rc < best) {
        best = rc;
        best_prefix = i + 1;
        best_is_suffix = true;
        best_boundary = state.in_boundary();
      }
    }
    // The caller only needs *a* violating candidate: the verdict at the
    // threshold is decided as soon as one prefix (or suffix) reaches it.
    // (The default threshold is +inf, which must never trigger: `best`
    // starts at +inf and the full sweep is the reference behavior.)
    if (options.early_exit_threshold != std::numeric_limits<double>::infinity() &&
        best <= options.early_exit_threshold) {
      break;
    }
  }

  CutWitness witness;
  witness.expansion = best;
  witness.boundary = static_cast<std::size_t>(best_boundary);
  witness.side = VertexSet(g.num_vertices());
  if (best_is_suffix) {
    for (std::size_t i = best_prefix; i < order.size(); ++i) witness.side.set(order[i]);
  } else {
    for (std::size_t i = 0; i < best_prefix; ++i) witness.side.set(order[i]);
  }
  // For edge expansion report the smaller side.
  if (kind == ExpansionKind::Edge && 2 * witness.side.count() > k) {
    witness.side = alive - witness.side;
  }
  return witness;
}

CutWitness sweep_cut(const Graph& g, const VertexSet& alive, const std::vector<vid>& order,
                     ExpansionKind kind) {
  return sweep_cut(g, alive, order, kind, SweepOptions{});
}

CutWitness sweep_by_values(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                           const std::vector<double>& values, const SweepOptions& options) {
  std::vector<vid> local_order;
  std::vector<vid>& order = options.ws != nullptr ? options.ws->order : local_order;
  order.clear();
  alive.for_each([&](vid v) { order.push_back(v); });
  std::stable_sort(order.begin(), order.end(),
                   [&](vid a, vid b) { return values[a] < values[b]; });
  return sweep_cut(g, alive, order, kind, options);
}

CutWitness fiedler_sweep(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                         const FiedlerSweepOptions& options) {
  ExpansionWorkspace* ws = options.ws;
  FiedlerOptions fopts;
  fopts.seed = options.seed;
  if (ws != nullptr) {
    fopts.scratch = &ws->lanczos;
    if (options.warm_start && ws->fiedler_valid &&
        ws->fiedler_vec.size() == g.num_vertices()) {
      fopts.warm_start = &ws->fiedler_vec;
    }
  }

  // Every path below eigensolves at least once, so resolve the operator's
  // sub-CSR up front: the engine-maintained one when it is authoritative
  // for this mask, otherwise one local build shared by all solve stages.
  SubCsr local_sub;
  if (ws != nullptr && ws->subcsr.valid && ws->subcsr.dim() == alive.count()) {
    fopts.sub = &ws->subcsr;
  } else {
    local_sub.build(g, alive);
    fopts.sub = &local_sub;
  }

  SweepOptions sopts;
  sopts.early_exit_threshold = options.early_exit_threshold;
  sopts.ws = ws;

  // Fast path: the caller only needs the verdict at a threshold, so the
  // eigensolve runs in stages — a sharply truncated, loosely converged
  // solve first, full accuracy only if the crude vector's sweep leaves the
  // verdict open.  Each stage warm-starts from the previous stage's Ritz
  // vector, so work is never thrown away.  Cut quality is a function of
  // the *ordering*, not of eigenvalue accuracy, which is why a residual of
  // 1e-3 usually decides the verdict that the 1e-8 solve would.  The caps
  // count steps of the operator the solve iterates, and a filtered step
  // costs a filter degree of applies: 12 filtered steps (after a 12-step
  // plain probe) reach 1e-3 on most components, while 40 steps would
  // already cost about as much as the unstaged solve.
  const bool staged = ws != nullptr &&
                      options.early_exit_threshold != std::numeric_limits<double>::infinity();
  if (staged) {
    struct Stage {
      int max_iterations;
      double tolerance;
    };
    constexpr Stage kStages[] = {{12, 1e-3}, {40, 1e-5}, {400, 1e-8}};
    CutWitness last;
    for (const Stage& stage : kStages) {
      fopts.max_iterations = stage.max_iterations;
      fopts.tolerance = stage.tolerance;
      ++ws->counters.eigensolves;
      FiedlerResult fiedler = fiedler_vector(g, alive, fopts);
      const bool converged = fiedler.converged;
      ws->fiedler_vec = std::move(fiedler.vector);
      ws->fiedler_valid = true;
      fopts.warm_start = &ws->fiedler_vec;  // escalation continues from here
      last = sweep_by_values(g, alive, kind, ws->fiedler_vec, sopts);
      if (last.expansion <= options.early_exit_threshold || converged) break;
    }
    return last;
  }

  if (ws != nullptr) ++ws->counters.eigensolves;
  FiedlerResult fiedler = fiedler_vector(g, alive, fopts);

  // Cache the vector for the next iteration's warm start / stale sweep.
  const std::vector<double>* values = &fiedler.vector;
  if (ws != nullptr) {
    ws->fiedler_vec = std::move(fiedler.vector);
    ws->fiedler_valid = true;
    values = &ws->fiedler_vec;
  }
  return sweep_by_values(g, alive, kind, *values, sopts);
}

CutWitness fiedler_sweep(const Graph& g, const VertexSet& alive, ExpansionKind kind,
                         std::uint64_t seed) {
  FiedlerSweepOptions options;
  options.seed = seed;
  return fiedler_sweep(g, alive, kind, options);
}

}  // namespace fne
