#include "prune/prune2.hpp"

#include <cmath>

#include "core/traversal.hpp"
#include "prune/compact.hpp"
#include "prune/engine.hpp"
#include "util/require.hpp"

namespace fne {

double theorem34_fault_probability(double delta, double sigma) {
  return 1.0 / (2.0 * std::exp(1.0) * std::pow(delta, 4.0 * sigma));
}

PruneResult prune2(const Graph& g, const VertexSet& alive, double alpha_e, double epsilon,
                   const PruneEngineOptions& options) {
  PruneEngine engine(g, ExpansionKind::Edge);
  return engine.run(alive, alpha_e, epsilon, options);
}

PruneResult prune2_reference(const Graph& g, const VertexSet& alive, double alpha_e,
                             double epsilon, const PruneEngineOptions& options) {
  FNE_REQUIRE(alpha_e > 0.0, "alpha_e must be positive");
  FNE_REQUIRE(epsilon >= 0.0 && epsilon < 1.0, "epsilon must lie in [0, 1)");
  const double threshold = alpha_e * epsilon;

  PruneResult result;
  result.survivors = alive;

  for (int i = 0; i < options.max_iterations; ++i) {
    if (result.survivors.count() < 2) break;
    CutFinderOptions finder = options.finder;
    finder.seed = options.finder.seed + static_cast<std::uint64_t>(i);
    const auto violation =
        find_violating_set(g, result.survivors, ExpansionKind::Edge, threshold, finder);
    if (!violation.has_value()) break;

    VertexSet cull = violation->side;
    if (options.compactify_enabled) {
      cull = compactify(g, result.survivors, cull);
    }
    CulledRecord record;
    record.size = cull.count();
    record.boundary = edge_boundary_size(g, result.survivors, cull);
    record.ratio = static_cast<double>(record.boundary) / static_cast<double>(record.size);
    record.set = std::move(cull);
    result.survivors -= record.set;
    result.total_culled += record.size;
    result.culled.push_back(std::move(record));
    ++result.iterations;
  }
  return result;
}

}  // namespace fne
