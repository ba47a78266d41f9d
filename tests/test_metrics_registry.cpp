// MetricsRegistry contracts (DESIGN.md §9): registry round-trips and
// param validation, campaign-JSON metric requests (unknown names and
// undeclared params rejected loudly), per-run metric records through
// ScenarioRunner, byte-identical campaign payloads across thread counts
// and warm/cold EngineCache states, and property tests for mesh_span /
// embedding_quality on the shared graph-family fixtures.
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <string>

#include "api/campaign.hpp"
#include "api/metrics.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "api/scenario.hpp"
#include "api/scenario_cli.hpp"
#include "core/traversal.hpp"
#include "graph_cases.hpp"
#include "run_cli.hpp"
#include "span/span.hpp"
#include "store/result_store.hpp"
#include "topology/mesh.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

// ---------------------------------------------------------------------------
// Registry basics
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, ListsTheBuiltins) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  for (const char* name : {"fragmentation", "expansion_bracket", "verify_trace", "mesh_span",
                           "span_estimate", "embedding_quality", "expander_certificate"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_FALSE(reg.at(name).doc.empty());
  }
  EXPECT_FALSE(reg.contains("no_such_metric"));
}

TEST(MetricsRegistry, UnknownNamesFailNamingTheRegisteredOnes) {
  try {
    (void)MetricsRegistry::instance().at("mesh_spam");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown metric 'mesh_spam'"), std::string::npos) << what;
    EXPECT_NE(what.find("mesh_span"), std::string::npos) << "must list registered names";
  }
}

TEST(MetricsRegistry, RejectsUndeclaredParams) {
  try {
    MetricsRegistry::instance().check("mesh_span", Params{{"sampels", "3"}});
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("has no param 'sampels'"), std::string::npos) << what;
    EXPECT_NE(what.find("samples"), std::string::npos) << "must list declared keys";
  }
  // Declared params pass.
  MetricsRegistry::instance().check("mesh_span", Params{{"samples", "3"}});
}

// ---------------------------------------------------------------------------
// Campaign JSON round-trip
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CampaignJsonRoundTripsMetricRequests) {
  const std::string text = R"({
    "scenarios": [
      {"name": "span-probe",
       "topology": {"name": "mesh", "params": {"side": 8, "dims": 2}},
       "prune": {"alpha": 0.25},
       "metrics": {"fragmentation": false,
                   "requests": [{"name": "mesh_span", "params": {"samples": 5}},
                                {"name": "embedding_quality"}]}}
    ]})";
  const Campaign c = campaign_from_json(text);
  ASSERT_EQ(c.entries.size(), 1u);
  const MetricsSpec& spec = c.entries[0].scenario.metrics;
  EXPECT_FALSE(spec.fragmentation);
  ASSERT_EQ(spec.requests.size(), 2u);
  EXPECT_EQ(spec.requests[0].name, "mesh_span");
  EXPECT_EQ(spec.requests[0].params.get_int("samples", 0), 5);
  EXPECT_EQ(spec.requests[1].name, "embedding_quality");
  EXPECT_TRUE(spec.requests[1].params.empty());
}

TEST(MetricsRegistry, CampaignJsonRejectsUnknownMetricsAndParams) {
  // Unknown metric name: rejected at parse time, naming the registry.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "mesh_spam"}]}}]})"),
               PreconditionError);
  // Undeclared metric param: same.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "mesh_span", "params": {"smaples": 2}}]}}]})"),
               PreconditionError);
  // Unknown key inside a request entry: same unknown-key style.
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"nam": "mesh_span"}]}}]})"),
               PreconditionError);
}

/// Runs `fn`, which must throw a PreconditionError whose message
/// contains `needle`.
template <typename Fn>
void expect_rejected(const Fn& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a PreconditionError naming " << needle;
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(RemovedSolverKnobs, CampaignKeysAndMetricParamsAreRejectedByName) {
  // The eigensolver is the library's choice (DESIGN.md §10): the retired
  // knobs are unknown keys and undeclared params, whatever their value.
  for (const char* knob : {"spectral_mode", "filter_degree"}) {
    const std::string key = knob;
    expect_rejected(
        [&] {
          (void)campaign_from_json(R"({"scenarios": [{"prune": {")" + key + R"(": 1}}]})");
        },
        "prune has no key '" + key + "'");
    for (const char* metric : {"embedding_quality", "expander_certificate"}) {
      expect_rejected([&] { MetricsRegistry::instance().check(metric, Params{{key, "0"}}); },
                      std::string("'") + metric + "' has no param '" + key + "'");
      expect_rejected(
          [&] {
            (void)campaign_from_json(std::string(R"({"scenarios": [{"metrics": {"requests": [
                {"name": ")") + metric + R"(", "params": {")" + key + R"(": 0}}]}}]})");
          },
          "has no param '" + key + "'");
    }
  }
}

TEST(RemovedSolverKnobs, CliFlagsAreRejectedByName) {
  for (const char* flag : {"spectral-mode=plain", "filter-degree=8"}) {
    const std::string name = std::string(flag).substr(0, std::string(flag).find('='));
    const testing::CliRun run =
        testing::run_scenario_runner(std::string("--scenario=mesh-random --reps=1 --") + flag);
    EXPECT_EQ(run.exit_code, 1) << run.output;
    EXPECT_NE(run.output.find("--" + name + " does not apply"), std::string::npos) << run.output;
  }
}

TEST(ScenarioCli, CountFlagsAreRangeCheckedBeforeNarrowing) {
  // 2^32 + 2 once wrapped to 2 repetitions, 2^32 + 1 to one thread.
  const auto cli = [](const std::string& flag) {
    std::string prog = "scenario_runner";
    std::string arg = flag;
    char* argv[] = {prog.data(), arg.data()};
    return Cli(2, argv);
  };
  EXPECT_EQ(scenario_overrides_from_cli(Scenario{}, cli("--reps=3")).repetitions, 3);
  for (const char* bad : {"--reps=4294967298", "--reps=0", "--reps=-1"}) {
    EXPECT_THROW((void)scenario_overrides_from_cli(Scenario{}, cli(bad)), PreconditionError)
        << bad;
  }
  EXPECT_EQ(cli("--threads=3").get_threads(), 3);
  EXPECT_GE(cli("--threads=0").get_threads(), 1);
  for (const char* bad : {"--threads=4294967297", "--threads=-1"}) {
    EXPECT_THROW((void)cli(bad).get_threads(), PreconditionError) << bad;
  }
  // scenario_runner reads every other integer flag through the same
  // accessor; 2^32 + 1 once ran as 1 (one churn round, one worker, ...).
  for (const char* flag : {"connect-attempts", "service-workers", "queue-depth",
                           "queue-deadline-ms", "max-request-bytes", "retry-after-ms",
                           "timeout-ms", "threads", "workers", "churn-steps"}) {
    const std::string bad = std::string("--") + flag + "=4294967297";
    try {
      (void)cli(bad).get_int_in_range<int>(flag, 0, 0, INT_MAX);
      ADD_FAILURE() << "expected PreconditionError for " << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(bad + " out of range"), std::string::npos) << e.what();
    }
    EXPECT_EQ(cli(std::string("--") + flag + "=7").get_int_in_range<int>(flag, 0, 0, INT_MAX), 7);
  }
  EXPECT_EQ(cli("--reps=5").get_int_in_range<int>("churn-steps", 3, 0, INT_MAX), 3)
      << "an absent flag reads its fallback";
  // Real-valued flags must be finite: --alpha=nan once reached the job
  // loop, and an inf α would render as the invalid JSON token `inf`.
  for (const char* bad : {"--alpha=nan", "--alpha=inf", "--eps=-inf", "--eps=NaN"}) {
    EXPECT_THROW((void)scenario_overrides_from_cli(Scenario{}, cli(bad)), PreconditionError)
        << bad;
  }
  EXPECT_EQ(scenario_overrides_from_cli(Scenario{}, cli("--alpha=0.25")).prune.alpha, 0.25);
  for (const char* bad : {"0.1,nan", "inf", "0.1,-inf,0.2"}) {
    EXPECT_THROW((void)parse_double_list(bad), PreconditionError) << bad;
  }
  // --cache-budget is MiB shifted left by 20: negative or shift-overflowing
  // counts are refused before the shift.
  const auto budget = [&](const std::string& flag) {
    return cli(flag).get_int_in_range<std::uint64_t>("cache-budget", 0, 0, INT64_MAX >> 20);
  };
  EXPECT_EQ(budget("--cache-budget=64") << 20, 64ull << 20);
  for (const char* bad : {"--cache-budget=-1", "--cache-budget=8796093022208"}) {
    EXPECT_THROW((void)budget(bad), PreconditionError) << bad;
  }
}

TEST(MetricsRegistry, RunnerValidatesRequestsEagerly) {
  Scenario s;
  s.topology = {"mesh", Params{{"side", "8"}}};
  s.prune.alpha = 0.25;
  s.metrics.requests = {{"no_such_metric", Params{}}};
  EXPECT_THROW((void)ScenarioRunner(s), PreconditionError);
  Scenario bad_param = s;
  bad_param.metrics.requests = {{"mesh_span", Params{{"bogus", "1"}}}};
  EXPECT_THROW((void)ScenarioRunner(bad_param), PreconditionError);
}

TEST(MetricsRegistry, DuplicateRequestsAreRejectedEverywhere) {
  // Records are keyed by name in report payloads; a duplicate request
  // would silently emit duplicate JSON keys, so every seam rejects it.
  Scenario s;
  s.topology = {"mesh", Params{{"side", "8"}}};
  s.prune.alpha = 0.25;
  s.metrics.requests = {{"fragmentation", Params{}}, {"fragmentation", Params{}}};
  EXPECT_THROW((void)ScenarioRunner(s), PreconditionError);
  Campaign campaign;
  campaign.entries.push_back({s, std::nullopt});
  EXPECT_THROW((void)CampaignRunner(std::move(campaign)), PreconditionError);
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [
      {"metrics": {"requests": [{"name": "fragmentation"},
                                {"name": "fragmentation"}]}}]})"),
               PreconditionError);
}

TEST(MetricsRegistry, CatalogPresetsCarryMetricRequests) {
  const Scenario e6 = named_scenario("mesh-span");
  ASSERT_EQ(e6.metrics.requests.size(), 2u);
  EXPECT_EQ(e6.metrics.requests[0].name, "mesh_span");
  const Scenario e8 = named_scenario("span-conjecture");
  ASSERT_EQ(e8.metrics.requests.size(), 2u);
  EXPECT_EQ(e8.metrics.requests[0].name, "span_estimate");
}

// ---------------------------------------------------------------------------
// Records through the runner
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario metric_scenario() {
  Scenario s;
  s.name = "metric-run";
  s.topology = {"mesh", Params{{"side", "10"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 0.2;
  s.seed = 4242;
  s.metrics.requests = {{"mesh_span", Params{{"samples", "6"}}},
                        {"embedding_quality", Params{}},
                        {"fragmentation", Params{}}};
  return s;
}

TEST(MetricsRegistry, RunnerProducesOneRecordPerRequestInOrder) {
  ScenarioRunner runner(metric_scenario());
  const ScenarioRun run = runner.run_isolated(metric_scenario().fault, 0);
  ASSERT_EQ(run.metrics.size(), 3u);
  EXPECT_EQ(run.metrics[0].name, "mesh_span");
  EXPECT_EQ(run.metrics[1].name, "embedding_quality");
  EXPECT_EQ(run.metrics[2].name, "fragmentation");
  for (const MetricRecord& m : run.metrics) {
    EXPECT_FALSE(m.brief.empty());
    const JsonValue payload = JsonValue::parse(m.payload);
    EXPECT_TRUE(payload.is_object()) << m.name;
  }
  // The registered fragmentation metric agrees with the legacy bool path.
  const JsonValue frag = JsonValue::parse(run.metrics[2].payload);
  EXPECT_DOUBLE_EQ(frag.at("gamma").as_number(), run.fragmentation.gamma);
  EXPECT_EQ(static_cast<std::size_t>(frag.at("components").as_int()),
            run.fragmentation.num_components);
}

TEST(MetricsRegistry, RecordsArePureFunctionsOfScenarioAndRep) {
  ScenarioRunner a(metric_scenario());
  ScenarioRunner b(metric_scenario());
  const ScenarioRun ra = a.run_isolated(metric_scenario().fault, 1);
  const ScenarioRun rb = b.run_isolated(metric_scenario().fault, 1);
  ASSERT_EQ(ra.metrics.size(), rb.metrics.size());
  for (std::size_t i = 0; i < ra.metrics.size(); ++i) {
    EXPECT_EQ(ra.metrics[i].payload, rb.metrics[i].payload) << ra.metrics[i].name;
  }
  // Different repetitions draw different metric seeds (sampled metrics
  // must not alias across reps).
  const ScenarioRun r0 = a.run_isolated(metric_scenario().fault, 0);
  EXPECT_NE(r0.metrics[0].payload, ra.metrics[0].payload)
      << "rep 0 and rep 1 sampled identical compact sets — seed derivation collapsed";
}

TEST(MetricsRegistry, MeshSpanRejectsNonMeshTopologies) {
  Scenario s = metric_scenario();
  s.topology = {"hypercube", Params{{"dims", "4"}}};
  s.prune.alpha = 0.5;
  s.metrics.requests = {{"mesh_span", Params{}}};
  ScenarioRunner runner(s);
  EXPECT_THROW((void)runner.run_isolated(s.fault, 0), PreconditionError);
}

// ---------------------------------------------------------------------------
// Determinism: thread counts and cache states (slow suite)
// ---------------------------------------------------------------------------

[[nodiscard]] Campaign metric_campaign() {
  Campaign campaign;
  campaign.name = "metrics-determinism";
  {
    Scenario s = metric_scenario();
    s.repetitions = 3;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "certificate";
    s.topology = {"random_regular", Params{{"n", "128"}, {"degree", "4"}}};
    s.fault = {"random", Params{{"p", "0.05"}}};
    s.prune.kind = ExpansionKind::Node;
    s.seed = 77;
    s.repetitions = 2;
    s.metrics.requests = {{"expander_certificate", Params{}},
                          {"span_estimate", Params{{"samples", "2"}}}};
    campaign.entries.push_back({s, std::nullopt});
  }
  return campaign;
}

TEST(MetricsDeterminismSlow, CampaignPayloadByteIdenticalAcrossThreadCounts) {
  CampaignRunner runner(metric_campaign());
  const std::string payload = runner.run(1).to_json(/*include_timing=*/false);
  EXPECT_NE(payload.find("\"metrics\""), std::string::npos);
  EXPECT_NE(payload.find("\"mesh_span\""), std::string::npos);
  EXPECT_NE(payload.find("\"expander_certificate\""), std::string::npos);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(payload, runner.run(threads).to_json(false));
  }
}

TEST(MetricsDeterminismSlow, CampaignPayloadByteIdenticalWarmAndColdCache) {
  EngineCache::instance().clear();
  CampaignRunner runner(metric_campaign());
  const std::string cold = runner.run(2).to_json(false);
  const EngineCacheStats before = EngineCache::instance().stats();
  const std::string warm = runner.run(2).to_json(false);
  const EngineCacheStats delta = EngineCache::instance().stats() - before;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(delta.graph_builds, 0u) << "warm run must reuse every cached graph";
}

// ---------------------------------------------------------------------------
// Property tests: mesh_span on tiny enumerable meshes (slow suite)
// ---------------------------------------------------------------------------

/// Compute a metric directly against a fabricated run (survivors = mask).
[[nodiscard]] MetricRecord compute_on_mask(const std::string& metric, const Params& params,
                                           const Scenario& scenario, const Graph& g,
                                           VertexSet mask, std::uint64_t seed) {
  ScenarioRun run;
  run.alive = mask;
  run.prune.survivors = std::move(mask);
  const MetricContext ctx{g, scenario, run, 0.5, 0.5, seed};
  return MetricsRegistry::instance().compute(metric, ctx, params);
}

TEST(MetricsRegistry, CountParamsAreRangeCheckedBeforeNarrowing) {
  // 2^32 + 1 once wrapped to 1 and passed each metric's ">= 1" check.
  Scenario s;
  s.topology = {"mesh", Params{{"side", "4"}}};
  const Graph g = TopologyRegistry::instance().build("mesh", s.topology.params, 1);
  const VertexSet all = VertexSet::full(g.num_vertices());
  const std::pair<const char*, const char*> counts[] = {{"mesh_span", "samples"},
                                                        {"span_estimate", "samples"},
                                                        {"embedding_quality", "spectral_dims"},
                                                        {"expander_certificate", "eigenpairs"},
                                                        {"expansion_bracket", "exact_limit"}};
  for (const auto& [metric, key] : counts) {
    EXPECT_THROW((void)compute_on_mask(metric, Params{{key, "4294967297"}}, s, g, all, 1),
                 PreconditionError)
        << metric;
  }
  // Every count is checked at parse time too (exact_limit against the
  // exact-search cap).
  MetricsRegistry::instance().check("expansion_bracket", Params{{"exact_limit", "30"}});
  EXPECT_THROW(
      MetricsRegistry::instance().check("expansion_bracket", Params{{"exact_limit", "31"}}),
      PreconditionError);
  for (const auto& [metric, key] : counts) {
    EXPECT_THROW(MetricsRegistry::instance().check(metric, Params{{key, "4294967297"}}),
                 PreconditionError)
        << metric;
  }
  struct Below {
    const char* metric;
    const char* key;
    const char* value;  ///< one under the lowest accepted count
  };
  for (const Below& b : {Below{"mesh_span", "samples", "0"}, Below{"span_estimate", "samples", "0"},
                         Below{"embedding_quality", "spectral_dims", "-1"},
                         Below{"expander_certificate", "eigenpairs", "0"},
                         Below{"expansion_bracket", "exact_limit", "-1"}}) {
    EXPECT_THROW(MetricsRegistry::instance().check(b.metric, Params{{b.key, b.value}}),
                 PreconditionError)
        << b.metric << " " << b.value;
  }
  MetricsRegistry::instance().check("embedding_quality", Params{{"spectral_dims", "0"}});

  // So a bad count in a later entry fails the parse, before the first
  // entry runs: the store keeps only its 16-byte header.
  const std::string text = R"({"scenarios": [
      {"topology": {"name": "mesh", "params": {"side": 4}}, "prune": {"alpha": 0.25}},
      {"topology": {"name": "mesh", "params": {"side": 4}}, "prune": {"alpha": 0.25},
       "metrics": {"requests": [{"name": "mesh_span", "params": {"samples": 0}}]}}]})";
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "fne_metric_count_store";
  std::filesystem::remove_all(dir);
  {
    ResultStore store(dir.string());
    EXPECT_THROW(
        {
          CampaignRunner runner(campaign_from_json(text));
          (void)runner.run(1, &store);
        },
        PreconditionError);
  }
  EXPECT_EQ(std::filesystem::file_size(dir / "cells.log"), 16u);
}

TEST(MeshSpanPropertySlow, ExactValuesOnTinyEnumerableMeshes) {
  struct Case {
    vid side, dims;
  };
  for (const Case c : {Case{8, 1}, Case{3, 2}, Case{4, 2}, Case{2, 3}}) {
    SCOPED_TRACE(std::to_string(c.side) + "^" + std::to_string(c.dims));
    Scenario s;
    s.topology = {"mesh", Params{}
                              .set("side", static_cast<std::int64_t>(c.side))
                              .set("dims", static_cast<std::int64_t>(c.dims))};
    const Mesh mesh = Mesh::cube(c.side, c.dims);
    const Graph& g = mesh.graph();
    const MetricRecord rec = compute_on_mask("mesh_span", Params{{"samples", "4"}}, s, g,
                                             VertexSet::full(g.num_vertices()), 3);
    const JsonValue payload = JsonValue::parse(rec.payload);
    // The metric's exhaustive branch must agree with the span oracle
    // (payload doubles round-trip through 12-digit JSON).
    const SpanResult oracle = exact_span(g);
    EXPECT_NEAR(payload.at("exact_span").as_number(), oracle.span, 1e-9);
    EXPECT_EQ(static_cast<std::uint64_t>(payload.at("exact_sets").as_int()),
              oracle.sets_examined);
    EXPECT_TRUE(payload.at("exact_bound_ok").as_bool());
    if (c.dims == 1) {
      EXPECT_NEAR(payload.at("exact_span").as_number(), 1.0, 1e-9);
    }
    // Theorem 3.6's own construction stays within its bound and Lemma 3.7
    // holds on every sampled set.
    EXPECT_TRUE(payload.at("tree_bound_ok").as_bool());
    EXPECT_EQ(payload.at("lemma37_ok").as_int(), payload.at("sampled_sets").as_int());
  }
}

TEST(MeshSpanPropertySlow, SampledBoundsHoldOnBiggerMeshes) {
  for (const vid side : {10U, 14U}) {
    SCOPED_TRACE(side);
    Scenario s;
    s.topology = {"mesh", Params{}.set("side", static_cast<std::int64_t>(side))};
    const Mesh mesh = Mesh::cube(side, 2);
    const Graph& g = mesh.graph();
    const MetricRecord rec = compute_on_mask("mesh_span", Params{{"samples", "12"}}, s, g,
                                             VertexSet::full(g.num_vertices()), side);
    const JsonValue payload = JsonValue::parse(rec.payload);
    EXPECT_GT(payload.at("sampled_sets").as_int(), 0);
    EXPECT_EQ(payload.at("lemma37_ok").as_int(), payload.at("sampled_sets").as_int());
    EXPECT_LE(payload.at("max_tree_ratio").as_number(), 2.0 + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Property tests: embedding_quality on the shared fixtures (slow suite)
// ---------------------------------------------------------------------------

class EmbeddingPropertySlow : public ::testing::TestWithParam<testing::GraphCase> {};

TEST_P(EmbeddingPropertySlow, IdentityEmbeddingAndPigeonholeUnderGrowingFaults) {
  const Graph g = GetParam().make();
  const vid n = g.num_vertices();
  Scenario s;  // topology spec unused by embedding_quality

  // No faults: the embedding is the identity — load 1, every guest edge
  // routed on itself.
  {
    const MetricRecord rec = compute_on_mask("embedding_quality", Params{}, s, g,
                                             VertexSet::full(n), 1);
    const JsonValue payload = JsonValue::parse(rec.payload);
    ASSERT_TRUE(payload.at("defined").as_bool());
    EXPECT_EQ(payload.at("load").as_int(), 1);
    EXPECT_LE(payload.at("dilation").as_int(), 1);
    EXPECT_LE(payload.at("congestion").as_int(), 1);
    EXPECT_EQ(static_cast<vid>(payload.at("host").as_int()),
              largest_component(g, VertexSet::full(n)).count());
  }

  // Growing fault sets: the 'random' model's masks NEST under one seed
  // (the registry's monotone coupling), so the host shrinks monotonically
  // and the pigeonhole bound load >= ceil(n / host) tightens.
  vid prev_host = n + 1;
  for (const double p : {0.1, 0.25, 0.4}) {
    SCOPED_TRACE(p);
    const VertexSet mask = FaultModelRegistry::instance().build(
        "random", g, Params{}.set("p", p), 555);
    if (mask.empty()) break;
    const MetricRecord rec = compute_on_mask("embedding_quality", Params{}, s, g, mask, 2);
    const JsonValue payload = JsonValue::parse(rec.payload);
    ASSERT_TRUE(payload.at("defined").as_bool());
    const auto host = static_cast<vid>(payload.at("host").as_int());
    EXPECT_LE(host, prev_host) << "largest component cannot grow as the mask shrinks";
    prev_host = host;
    const auto load = static_cast<std::uint64_t>(payload.at("load").as_int());
    EXPECT_GE(load * host, static_cast<std::uint64_t>(n)) << "pigeonhole violated";
    EXPECT_LE(payload.at("average_dilation").as_number(),
              static_cast<double>(payload.at("dilation").as_int()) + 1e-12);
    // Spectral profile: k = 2 nontrivial eigenvalues of a connected host
    // are positive and ascending.
    if (payload.find("spectral") != nullptr) {
      const auto& lams = payload.at("spectral").items();
      ASSERT_EQ(lams.size(), 2u);
      EXPECT_GT(lams[0].as_number(), 0.0);
      EXPECT_LE(lams[0].as_number(), lams[1].as_number() + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, EmbeddingPropertySlow,
    ::testing::Values(testing::GraphCase{testing::Family::Mesh2D, 12, 1},
                      testing::GraphCase{testing::Family::Mesh3D, 5, 1},
                      testing::GraphCase{testing::Family::Hypercube, 7, 1},
                      testing::GraphCase{testing::Family::DeBruijn, 7, 1},
                      testing::GraphCase{testing::Family::RandomRegular4, 128, 9},
                      testing::GraphCase{testing::Family::Butterfly, 4, 1}),
    testing::GraphCaseName{});

}  // namespace
}  // namespace fne
