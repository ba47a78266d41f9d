// The expander_certificate metric (api/metrics.hpp) on fault-free runs:
// every vertex survives, so the certificate describes the topology
// itself and its spectrum can be checked against closed forms.  The
// adjacency spectrum of a d-regular graph is d minus the Laplacian one,
// so λ₂(A) = degree - lambdas[0] and λ_min(A) = degree - lambda_max.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>

#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "expansion/exact.hpp"
#include "util/json.hpp"

namespace fne {
namespace {

/// The metric's payload for `topology` with `survivors` alive (all of
/// them when absent).
[[nodiscard]] JsonValue certificate(const std::string& topology, const Params& params,
                                    std::uint64_t seed,
                                    const std::optional<VertexSet>& survivors = std::nullopt) {
  Scenario scenario;
  scenario.topology = {topology, params};
  scenario.fault = {"none", Params{}};
  const Graph g = TopologyRegistry::instance().build(topology, params, seed);
  ScenarioRun run;
  run.alive = survivors.value_or(VertexSet::full(g.num_vertices()));
  run.prune.survivors = run.alive;
  const MetricContext ctx{g, scenario, run, 0.5, 0.5, seed};
  return JsonValue::parse(
      MetricsRegistry::instance().compute("expander_certificate", ctx, Params{}).payload);
}

[[nodiscard]] double lambda2(const JsonValue& c) {
  return c.at("lambdas").items().front().as_number();
}

TEST(ExpanderCertificate, CompleteGraphSpectrum) {
  // K_n adjacency spectrum: n-1 once, -1 with multiplicity n-1.
  const JsonValue c = certificate("complete", Params{{"n", "9"}}, 7);
  ASSERT_TRUE(c.at("converged").as_bool());
  ASSERT_TRUE(c.at("regular").as_bool());
  const double d = c.at("degree").as_number();
  EXPECT_EQ(d, 8.0);
  EXPECT_NEAR(d - lambda2(c), -1.0, 1e-6);
  EXPECT_NEAR(d - c.at("lambda_max").as_number(), -1.0, 1e-6);
  EXPECT_NEAR(lambda2(c), 9.0, 1e-6);  // spectral gap d - λ₂(A)
  EXPECT_TRUE(c.at("is_ramanujan").as_bool());
}

TEST(ExpanderCertificate, CycleSpectrum) {
  // C_n: λ₂(A) = 2cos(2π/n), λ_min = -2 (even n).
  const vid n = 12;
  const JsonValue c = certificate("cycle", Params{{"n", std::to_string(n)}}, 7);
  ASSERT_TRUE(c.at("converged").as_bool());
  ASSERT_TRUE(c.at("regular").as_bool());
  const double d = c.at("degree").as_number();
  EXPECT_NEAR(d - lambda2(c), 2.0 * std::cos(2.0 * M_PI / n), 1e-6);
  EXPECT_NEAR(d - c.at("lambda_max").as_number(), -2.0, 1e-6);
}

TEST(ExpanderCertificate, HypercubeSpectrum) {
  // Q_d adjacency eigenvalues are d - 2i: λ₂ = d-2, λ_min = -d.
  const JsonValue c = certificate("hypercube", Params{{"dims", "4"}}, 7);
  ASSERT_TRUE(c.at("converged").as_bool());
  ASSERT_TRUE(c.at("regular").as_bool());
  const double d = c.at("degree").as_number();
  EXPECT_NEAR(d - lambda2(c), 2.0, 1e-6);
  EXPECT_NEAR(d - c.at("lambda_max").as_number(), -4.0, 1e-6);
  EXPECT_NEAR(c.at("edge_expansion_lower").as_number(), 1.0, 1e-6);  // matches exact αe = 1
}

TEST(ExpanderCertificate, MixingBoundBelowExactExpansion) {
  const Params p{{"n", "14"}, {"degree", "4"}};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const JsonValue c = certificate("random_regular", p, seed);
    const Graph g = TopologyRegistry::instance().build("random_regular", p, seed);
    const double exact = exact_expansion(g, ExpansionKind::Edge).expansion;
    EXPECT_LE(c.at("edge_expansion_lower").as_number(), exact + 1e-6) << "seed=" << seed;
  }
}

TEST(ExpanderCertificate, RandomRegularIsNearRamanujan) {
  // Friedman: random d-regular graphs are almost Ramanujan; at n = 256
  // λ should be close to (and often within) 2·sqrt(d-1).
  const JsonValue c = certificate("random_regular", Params{{"n", "256"}, {"degree", "4"}}, 9);
  ASSERT_TRUE(c.at("converged").as_bool());
  ASSERT_TRUE(c.at("regular").as_bool());
  EXPECT_LT(c.at("lambda_mixing").as_number(), 2.0 * std::sqrt(3.0) + 0.45);
  EXPECT_GT(lambda2(c), 0.5);
}

TEST(ExpanderCertificate, IrregularGraphReportsNoMixingBound) {
  // The Cheeger-type bound holds for any graph; only the mixing-lemma
  // fields need regularity.
  const JsonValue c = certificate("path", Params{{"n", "5"}}, 7);
  EXPECT_TRUE(c.at("defined").as_bool());
  EXPECT_FALSE(c.at("regular").as_bool());
  EXPECT_EQ(c.find("lambda_mixing"), nullptr);
}

TEST(ExpanderCertificate, MaskedRegularSubgraph) {
  // A cycle with a vertex removed is a path: irregular under the mask.
  VertexSet alive = VertexSet::full(8);
  alive.reset(0);
  EXPECT_FALSE(certificate("cycle", Params{{"n", "8"}}, 7, alive).at("regular").as_bool());
  EXPECT_TRUE(certificate("cycle", Params{{"n", "8"}}, 7).at("regular").as_bool());
}

}  // namespace
}  // namespace fne
