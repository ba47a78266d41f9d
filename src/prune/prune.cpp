#include "prune/prune.hpp"

#include "prune/engine.hpp"
#include "util/require.hpp"

namespace fne {

PruneResult prune(const Graph& g, const VertexSet& alive, double alpha, double epsilon,
                  const PruneEngineOptions& options) {
  PruneEngine engine(g, ExpansionKind::Node);
  return engine.run(alive, alpha, epsilon, options);
}

PruneResult prune_reference(const Graph& g, const VertexSet& alive, double alpha, double epsilon,
                            const PruneEngineOptions& options) {
  FNE_REQUIRE(alpha > 0.0, "alpha must be positive");
  FNE_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "epsilon must lie in [0, 1)");
  const double threshold = alpha * epsilon;

  PruneResult result;
  result.survivors = alive;

  for (int i = 0; i < options.max_iterations; ++i) {
    if (result.survivors.count() < 2) break;
    CutFinderOptions finder = options.finder;
    finder.seed = options.finder.seed + static_cast<std::uint64_t>(i);
    const auto violation =
        find_violating_set(g, result.survivors, ExpansionKind::Node, threshold, finder);
    if (!violation.has_value()) break;

    CulledRecord record;
    record.set = violation->side;
    record.size = violation->side.count();
    record.boundary = violation->boundary;
    record.ratio = violation->expansion;
    result.survivors -= violation->side;
    result.total_culled += record.size;
    result.culled.push_back(std::move(record));
    ++result.iterations;
  }
  return result;
}

}  // namespace fne
