// Executor/campaign layer contracts (DESIGN.md §8): ExecutorPool job
// coverage and error propagation, EngineCache sharing + lease isolation,
// monotone fault sweeps (registry gating, work saving, deterministic
// parity with independent points), campaign JSON parsing, and the
// campaign determinism story — the report's deterministic payload is
// byte-identical across thread counts and cache-hit patterns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/campaign.hpp"
#include "api/executor.hpp"
#include "api/registry.hpp"
#include "api/runner.hpp"
#include "util/json.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace fne {
namespace {

// ---------------------------------------------------------------------------
// ExecutorPool
// ---------------------------------------------------------------------------

TEST(ExecutorPool, RunsEveryJobExactlyOnce) {
  for (const int threads : {1, 3, 8}) {
    SCOPED_TRACE(threads);
    constexpr std::size_t kJobs = 100;
    std::vector<std::atomic<int>> hits(kJobs);
    ExecutorPool::run(kJobs, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ExecutorPool, ZeroJobsIsANoOp) {
  ExecutorPool::run(0, 4, [](std::size_t) { FAIL() << "no jobs to run"; });
}

TEST(ExecutorPool, FirstErrorPropagatesAndRemainingJobsStillRun) {
  std::atomic<int> ran{0};
  EXPECT_THROW(ExecutorPool::run(20, 4,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 3) throw PreconditionError("job 3 failed");
                                 }),
               PreconditionError);
  EXPECT_EQ(ran.load(), 20);
}

// ---------------------------------------------------------------------------
// EngineCache
// ---------------------------------------------------------------------------

TEST(EngineCache, UnseededTopologiesShareOneGraphAcrossSeeds) {
  EngineCache& cache = EngineCache::instance();
  const Params mesh = Params{{"side", "10"}, {"dims", "2"}};
  const auto a = cache.graph("mesh", mesh, 1);
  const auto b = cache.graph("mesh", mesh, 99999);
  EXPECT_EQ(a.get(), b.get()) << "mesh ignores its seed; the cache must fold the key";

  const Params rr = Params{{"n", "64"}, {"degree", "4"}};
  const auto c = cache.graph("random_regular", rr, 1);
  const auto d = cache.graph("random_regular", rr, 2);
  EXPECT_NE(c.get(), d.get()) << "seeded topologies are distinct per seed";
  const auto c2 = cache.graph("random_regular", rr, 1);
  EXPECT_EQ(c.get(), c2.get());
}

TEST(EngineCache, LeasedEnginesReturnToTheIdlePoolAndAreReused) {
  EngineCache& cache = EngineCache::instance();
  const Params params = Params{{"side", "9"}, {"dims", "2"}};
  cache.clear();
  const EngineCacheStats before = cache.stats();
  {
    const EngineLease lease = cache.lease("mesh", params, 7, ExpansionKind::Edge);
    EXPECT_TRUE(static_cast<bool>(lease));
    EXPECT_EQ(lease.graph().num_vertices(), 81u);
  }
  EXPECT_GE(cache.idle_engines(), 1u);
  {
    const EngineLease again = cache.lease("mesh", params, 8, ExpansionKind::Edge);
    EXPECT_TRUE(static_cast<bool>(again));
  }
  const EngineCacheStats delta = cache.stats() - before;
  EXPECT_EQ(delta.leases, 2u);
  EXPECT_EQ(delta.engine_builds, 1u);
  EXPECT_EQ(delta.engine_hits, 1u) << "the second lease must be served from the idle pool";
}

TEST(EngineCache, LeaseDropsWarmStateSoHistoryCannotLeak) {
  // Run the same fast-mode repetition twice through cache leases, with a
  // fast-mode churn call in between whose engine goes back to the idle
  // pool holding a warm Fiedler cache: bit-identical results either way.
  Scenario s;
  s.name = "cache-isolation";
  s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.25"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.fast = true;
  s.seed = 5150;

  EngineCache& cache = EngineCache::instance();
  cache.clear();
  ScenarioRunner fresh(s);
  const ScenarioRun cold = fresh.run_isolated(s.fault, 0);

  ScenarioRunner warmed(s);
  ChurnOptions copts;
  copts.steps = 4;
  copts.seed = 99;
  const ChurnRunTrace churn = warmed.run_churn(copts);
  ASSERT_GT(churn.engine.eigensolves, 0u) << "the churn rounds must leave a Fiedler vector";
  ASSERT_EQ(cache.idle_engines(), 1u) << "the warmed engine is back in the idle pool";

  const EngineCacheStats before = cache.stats();
  const ScenarioRun after_history = warmed.run_isolated(s.fault, 0);
  EXPECT_EQ((cache.stats() - before).engine_hits, 1u)
      << "the churn-warmed engine must serve this lease";
  EXPECT_TRUE(cold.prune.survivors == after_history.prune.survivors);
  EXPECT_EQ(cold.prune.iterations, after_history.prune.iterations);
  // The work counters are payload too, and they are where a leaked
  // Fiedler vector shows first: a stale sweep the cold run never tried.
  EXPECT_EQ(cold.engine.stale_sweeps, after_history.engine.stale_sweeps);
  EXPECT_EQ(cold.engine.stale_sweep_hits, after_history.engine.stale_sweep_hits);
  EXPECT_EQ(cold.engine.eigensolves, after_history.engine.eigensolves);
}

// ---------------------------------------------------------------------------
// Monotone sweeps
// ---------------------------------------------------------------------------

[[nodiscard]] Scenario sweep_scenario() {
  Scenario s;
  s.name = "sweep-test";
  s.topology = {"mesh", Params{{"side", "24"}, {"dims", "2"}}};
  s.fault = {"random", Params{{"p", "0.1"}}};
  s.prune.kind = ExpansionKind::Edge;
  s.prune.alpha = 2.0 / 24.0;
  s.seed = 20240731;
  s.metrics.verify_trace = true;
  return s;
}

/// `s` swept over fault param p as a one-entry campaign (one thread).
[[nodiscard]] ScenarioReport run_sweep(const Scenario& s, std::vector<double> values,
                                       SweepMode mode) {
  Campaign campaign;
  campaign.entries.push_back({s, SweepSpec{"p", std::move(values), mode}});
  CampaignReport report = CampaignRunner(std::move(campaign)).run(1);
  return std::move(report.scenarios.front());
}

TEST(MonotoneSweep, DeterministicModeMatchesIndependentPointsBitForBit) {
  const std::vector<double> values{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35};
  const ScenarioReport indep_report = run_sweep(sweep_scenario(), values, SweepMode::kIndependent);
  const ScenarioReport mono_report = run_sweep(sweep_scenario(), values, SweepMode::kMonotone);
  const std::vector<ScenarioRun>& indep = indep_report.runs;
  const std::vector<ScenarioRun>& mono = mono_report.runs;
  ASSERT_EQ(indep.size(), values.size());
  ASSERT_EQ(mono.size(), values.size());
  bool any_culled = false;
  for (std::size_t i = 0; i < values.size(); ++i) {
    SCOPED_TRACE(values[i]);
    // The sweep's OUTPUT — the survivor set — is bit-identical in the
    // paper's subcritical prune2 regime; the chained trace (alive,
    // culled records) legitimately covers only the delta.
    EXPECT_TRUE(indep[i].prune.survivors == mono[i].prune.survivors);
    EXPECT_EQ(indep[i].fault_seed, mono[i].fault_seed);
    EXPECT_EQ(indep[i].faults, mono[i].faults) << "fault counts describe the fault model";
    EXPECT_TRUE(mono[i].alive.is_subset_of(indep[i].alive))
        << "chained start must be a subset of the fault-model mask";
    // Every monotone point is still a certified prune run.
    ASSERT_TRUE(mono[i].trace.has_value());
    EXPECT_TRUE(mono[i].trace->valid);
    any_culled = any_culled || indep[i].prune.total_culled > 0;
  }
  EXPECT_TRUE(any_culled) << "workload too gentle to exercise the cull loop";

  // The fast path must actually save cull work (the acceptance criterion
  // bench_s4_campaign measures at scale).
  EXPECT_EQ(indep_report.engine.runs, values.size());
  EXPECT_EQ(mono_report.engine.runs, values.size());
  EXPECT_LT(mono_report.engine.iterations, indep_report.engine.iterations);
}

TEST(MonotoneSweep, MasksNestUnderTheSameSeed) {
  // The coupling the registry declaration promises: alive(p_hi) is a
  // subset of alive(p_lo) under one seed.
  const auto g = EngineCache::instance().graph("mesh", Params{{"side", "12"}}, 0);
  const VertexSet lo = FaultModelRegistry::instance().build("random", *g,
                                                            Params{{"p", "0.1"}}, 777);
  const VertexSet hi = FaultModelRegistry::instance().build("random", *g,
                                                            Params{{"p", "0.4"}}, 777);
  EXPECT_TRUE(hi.is_subset_of(lo));
  EXPECT_LT(hi.count(), lo.count());

  const VertexSet small_attack = FaultModelRegistry::instance().build(
      "high_degree", *g, Params{{"budget", "10"}}, 1);
  const VertexSet big_attack = FaultModelRegistry::instance().build(
      "high_degree", *g, Params{{"budget", "40"}}, 1);
  EXPECT_TRUE(big_attack.is_subset_of(small_attack));
}

TEST(MonotoneSweep, RequiresADeclaredParamAndAscendingValues) {
  Scenario undeclared = sweep_scenario();
  undeclared.fault = {"sweep_cut", Params{}};
  Campaign campaign;
  campaign.entries.push_back({undeclared, SweepSpec{"frac", {0.1, 0.2}, SweepMode::kMonotone}});
  EXPECT_THROW((void)CampaignRunner(campaign), PreconditionError);
  // The same param swept independently is fine: sweep_cut declares it.
  campaign.entries.front().sweep->mode = SweepMode::kIndependent;
  EXPECT_NO_THROW((void)CampaignRunner(campaign));

  for (const std::vector<double>& bad :
       {std::vector<double>{0.3, 0.2}, std::vector<double>{0.2, 0.2}}) {
    Campaign descending;
    descending.entries.push_back({sweep_scenario(), SweepSpec{"p", bad, SweepMode::kMonotone}});
    EXPECT_THROW((void)CampaignRunner(descending), PreconditionError);
  }
  EXPECT_EQ(run_sweep(sweep_scenario(), {0.1, 0.2}, SweepMode::kMonotone).runs.size(), 2u);
}

// ---------------------------------------------------------------------------
// Campaign JSON
// ---------------------------------------------------------------------------

TEST(CampaignJson, ParsesPresetsOverridesAndSweeps) {
  const std::string text = R"({
    "name": "doc-example",
    "scenarios": [
      {"preset": "mesh-random", "repetitions": 3, "seed": 9},
      {"name": "sweepy",
       "topology": {"name": "mesh", "params": {"side": 16, "dims": 2}},
       "fault": {"name": "random", "params": {"p": 0.1}},
       "prune": {"kind": "edge", "alpha": 0.125, "fast": true},
       "metrics": {"verify_trace": true},
       "sweep": {"param": "p", "values": [0.1, 0.2, 0.3], "mode": "monotone"}}
    ]})";
  const Campaign c = campaign_from_json(text);
  EXPECT_EQ(c.name, "doc-example");
  ASSERT_EQ(c.entries.size(), 2u);

  const Scenario& preset = c.entries[0].scenario;
  EXPECT_EQ(preset.name, "mesh-random");
  EXPECT_EQ(preset.repetitions, 3);
  EXPECT_EQ(preset.seed, 9u);
  EXPECT_EQ(preset.topology.name, "mesh");
  EXPECT_FALSE(c.entries[0].sweep.has_value());

  const Scenario& sweepy = c.entries[1].scenario;
  EXPECT_EQ(sweepy.name, "sweepy");
  EXPECT_EQ(sweepy.topology.params.get_int("side", 0), 16);
  EXPECT_DOUBLE_EQ(sweepy.prune.alpha, 0.125);
  EXPECT_TRUE(sweepy.prune.fast);
  EXPECT_TRUE(sweepy.metrics.verify_trace);
  ASSERT_TRUE(c.entries[1].sweep.has_value());
  EXPECT_EQ(c.entries[1].sweep->param, "p");
  EXPECT_EQ(c.entries[1].sweep->values.size(), 3u);
  EXPECT_EQ(c.entries[1].sweep->mode, SweepMode::kMonotone);
}

TEST(CampaignJson, RejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": []})"), PreconditionError);
  EXPECT_THROW((void)campaign_from_json(R"({"scenarios": [{"topologyy": {}}]})"),
               PreconditionError);
  EXPECT_THROW(
      (void)campaign_from_json(R"({"scenarios": [{"prune": {"kind": "sideways"}}]})"),
      PreconditionError);
  EXPECT_THROW(
      (void)campaign_from_json(R"({"scenarios": [{"sweep": {"param": "p", "values": []}}]})"),
      PreconditionError);
  EXPECT_THROW((void)campaign_from_file("/no/such/file.json"), PreconditionError);
  // Integers are range-checked before they are narrowed: each of these
  // once wrapped into a small valid value (2^32 + 1 repetitions ran one).
  const auto bad_int = [](const std::string& field, const std::string& json) {
    try {
      (void)campaign_from_json(json);
      ADD_FAILURE() << "expected PreconditionError for " << json;
    } catch (const PreconditionError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(field), std::string::npos) << what;
      EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    }
  };
  const std::string mesh = R"("topology": {"name": "mesh", "params": {"side": 6}})";
  bad_int("repetitions", R"({"scenarios": [{)" + mesh + R"(, "repetitions": 4294967297}]})");
  bad_int("repetitions", R"({"scenarios": [{)" + mesh + R"(, "repetitions": 0}]})");
  bad_int("prune.max_iterations",
          R"({"scenarios": [{)" + mesh + R"(, "prune": {"max_iterations": 4294967296}}]})");
  bad_int("prune.max_iterations",
          R"({"scenarios": [{)" + mesh + R"(, "prune": {"max_iterations": -1}}]})");
  bad_int("metrics.bracket_exact_limit",
          R"({"scenarios": [{)" + mesh + R"(, "metrics": {"bracket_exact_limit": -1}}]})");
  bad_int("metrics.bracket_exact_limit",
          R"({"scenarios": [{)" + mesh + R"(, "metrics": {"bracket_exact_limit": 31}}]})");
  bad_int("exact_limit", R"({"scenarios": [{)" + mesh +
                             R"(, "metrics": {"requests": [{"name": "expansion_bracket",
                                 "params": {"exact_limit": 4294967310}}]}}]})");
  // A negative seed once ran as 2^64 - 1.
  bad_int("seed", R"({"scenarios": [{)" + mesh + R"(, "seed": -1}]})");
  // The bounds themselves parse.
  const Campaign edge = campaign_from_json(
      R"({"scenarios": [{)" + mesh +
      R"(, "repetitions": 1, "prune": {"max_iterations": 0},
           "metrics": {"bracket_exact_limit": 30,
                       "requests": [{"name": "expansion_bracket",
                                     "params": {"exact_limit": 0}}]}}]})");
  EXPECT_EQ(edge.entries[0].scenario.metrics.bracket_exact_limit, 30u);
  const Campaign zero_seed =
      campaign_from_json(R"({"scenarios": [{)" + mesh + R"(, "seed": 0}]})");
  EXPECT_EQ(zero_seed.entries[0].scenario.seed, 0u);
}

TEST(JsonValueParser, CoversTheGrammar) {
  const JsonValue v = JsonValue::parse(
      R"({"s": "a\"b\nA", "i": -42, "f": 6.25e-2, "t": true, "n": null,
          "arr": [1, [2, 3], {"k": "v"}]})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\nA");
  EXPECT_EQ(v.at("i").as_int(), -42);
  EXPECT_DOUBLE_EQ(v.at("f").as_number(), 0.0625);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  ASSERT_EQ(v.at("arr").items().size(), 3u);
  EXPECT_EQ(v.at("arr").items()[1].items()[1].as_int(), 3);
  EXPECT_EQ(v.at("arr").items()[2].at("k").as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), PreconditionError);
  EXPECT_THROW((void)v.at("i").as_string(), PreconditionError);
  EXPECT_THROW((void)v.at("f").as_int(), PreconditionError);
}

TEST(JsonValueParser, AsIntRejectsOutOfRangeNumbersBeforeCasting) {
  const JsonValue v = JsonValue::parse(
      R"({"huge": 1e300, "tiny": -1e300, "over": 9.3e18, "edge": -9223372036854775808,
          "fits": 9.2e18})");
  EXPECT_THROW((void)v.at("huge").as_int(), PreconditionError);
  EXPECT_THROW((void)v.at("tiny").as_int(), PreconditionError);
  EXPECT_THROW((void)v.at("over").as_int(), PreconditionError);
  EXPECT_EQ(v.at("edge").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.at("fits").as_int(), 9200000000000000000);
  EXPECT_THROW(
      (void)campaign_from_json(R"({"scenarios": [{"preset": "mesh-random", "repetitions": 1e300}]})"),
      PreconditionError);
}

TEST(JsonValueParser, RejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse("{"), PreconditionError);
  // Overflow to ±inf would re-render as the invalid token `inf`;
  // underflow to 0 is a representable value.
  EXPECT_THROW((void)JsonValue::parse("[1e999]"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse("[-1e999]"), PreconditionError);
  EXPECT_EQ(JsonValue::parse("[1e-999]").items()[0].as_number(), 0.0);
  EXPECT_THROW((void)JsonValue::parse("{} extra"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1, "a": 2})"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 01x})"), PreconditionError);
  EXPECT_THROW((void)JsonValue::parse(R"(["unterminated)"), PreconditionError);
}

// ---------------------------------------------------------------------------
// JsonObject writer
// ---------------------------------------------------------------------------

/// What the payload printed before the one-buffer writer: an ostream at
/// precision 12 (printf "%.12g").
[[nodiscard]] std::string ostream_g12(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

TEST(JsonObject, NumbersRenderExactlyAsOstreamAtPrecision12) {
  std::vector<double> values = {0.0,
                                -0.0,
                                std::numeric_limits<double>::denorm_min(),
                                4.9406564584124654e-320,
                                1e-7,
                                0.1,
                                1.0 / 3.0,
                                9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
                                1e21,
                                1e300,
                                -123456789.123456789,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN()};
  // A seeded sweep over raw bit patterns: every exponent, both signs,
  // denormals, infinities and NaN payloads.
  Rng rng(20260);
  for (int i = 0; i < 100000; ++i) values.push_back(std::bit_cast<double>(rng.next()));

  for (const double v : values) {
    JsonObject obj;
    obj.put("v", v);
    ASSERT_EQ(obj.dump(), "{\"v\": " + ostream_g12(v) + "}") << std::hexfloat << v;
  }
  // put_numbers: the same formatter, ", "-joined.
  for (std::size_t start = 0; start < values.size(); start += 1000) {
    const std::vector<double> chunk(values.begin() + static_cast<std::ptrdiff_t>(start),
                                    values.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                         start + 1000, values.size())));
    std::string expected = "{\"a\": [";
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      if (i > 0) expected += ", ";
      expected += ostream_g12(chunk[i]);
    }
    JsonObject obj;
    obj.put_numbers("a", chunk);
    ASSERT_EQ(obj.dump(), expected + "]}") << "chunk at " << start;
  }
  JsonObject ints;
  ints.put("i", std::numeric_limits<std::int64_t>::min())
      .put("u", std::numeric_limits<std::uint64_t>::max())
      .put("n", -7);
  EXPECT_EQ(ints.dump(),
            R"({"i": -9223372036854775808, "u": 18446744073709551615, "n": -7})");
}

TEST(JsonObject, NestsInPlaceAsTheSplicedDumpWould) {
  JsonObject inner;
  inner.put("a", 1).put("s", "q\"\\\n").put_numbers("xs", {0.5, 2.0});
  JsonObject spliced;
  spliced.put("x", true).put_json("o", inner.dump()).put_json("e", "[]");
  JsonObject nested;
  nested.put("x", true)
      .open_object("o")
      .put("a", 1)
      .put("s", "q\"\\\n")
      .put_numbers("xs", {0.5, 2.0})
      .close()
      .open_array("e")
      .close();
  EXPECT_EQ(nested.dump(), spliced.dump());
  EXPECT_EQ(nested.dump(), R"({"x": true, "o": {"a": 1, "s": "q\"\\\n", "xs": [0.5, 2]}, "e": []})");

  JsonObject rows;
  rows.open_array("rows");
  for (int i = 0; i < 2; ++i) rows.open_object().put("i", i).open_object("m").close().close();
  rows.close();
  EXPECT_EQ(rows.dump(), R"({"rows": [{"i": 0, "m": {}}, {"i": 1, "m": {}}]})");
  EXPECT_EQ(std::move(rows).dump(), R"({"rows": [{"i": 0, "m": {}}, {"i": 1, "m": {}}]})");
  EXPECT_EQ(JsonObject().dump(), "{}");

  // Misuse fails loudly instead of writing malformed JSON.
  EXPECT_THROW(JsonObject().close(), PreconditionError);
  EXPECT_THROW(JsonObject().open_object(), PreconditionError) << "unkeyed object outside an array";
  JsonObject open;
  open.open_array("a");
  EXPECT_THROW(open.put("k", 1), PreconditionError) << "keyed field inside an array";
  EXPECT_THROW((void)open.dump(), PreconditionError) << "dump with an array still open";
}

TEST(JsonObject, EscapesEveryControlCharacterAndRoundTrips) {
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  all += "\"\\/ plain \x7f\xc3\xa9";
  JsonObject obj;
  obj.put("s", all).put(std::string_view("k\x01\t", 3), 1);
  const std::string text = obj.dump();
  for (const char c : text) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte in " << text;
  }
  const JsonValue v = JsonValue::parse(text);
  EXPECT_EQ(v.at("s").as_string(), all);
  EXPECT_EQ(v.at(std::string("k\x01\t", 3)).as_int(), 1);
  JsonObject tab;
  tab.put("t", "a\tb\rc\nd\be");
  EXPECT_EQ(tab.dump(), R"({"t": "a\tb\rc\nd\u0008e"})");
}

// ---------------------------------------------------------------------------
// Campaign determinism
// ---------------------------------------------------------------------------

[[nodiscard]] Campaign determinism_campaign() {
  Campaign campaign;
  campaign.name = "determinism";
  {
    Scenario s;
    s.name = "reps";
    s.topology = {"mesh", Params{{"side", "12"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.25"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.fast = true;
    s.repetitions = 5;
    s.seed = 71;
    campaign.entries.push_back({s, std::nullopt});
  }
  {
    Scenario s;
    s.name = "monotone";
    s.topology = {"mesh", Params{{"side", "16"}, {"dims", "2"}}};
    s.fault = {"random", Params{{"p", "0.1"}}};
    s.prune.kind = ExpansionKind::Edge;
    s.prune.alpha = 0.125;
    s.seed = 72;
    campaign.entries.push_back({s, SweepSpec{"p", {0.1, 0.2, 0.3}, SweepMode::kMonotone}});
  }
  {
    Scenario s;
    s.name = "hubs";
    s.topology = {"hypercube", Params{{"dims", "7"}}};
    s.fault = {"high_degree", Params{{"frac", "0.1"}}};
    s.prune.kind = ExpansionKind::Node;
    s.repetitions = 2;
    s.seed = 73;
    campaign.entries.push_back({s, std::nullopt});
  }
  return campaign;
}

void expect_identical(const ScenarioRun& a, const ScenarioRun& b) {
  EXPECT_EQ(a.repetition, b.repetition);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.finder_seed, b.finder_seed);
  EXPECT_TRUE(a.alive == b.alive);
  EXPECT_TRUE(a.prune.survivors == b.prune.survivors);
  EXPECT_EQ(a.prune.iterations, b.prune.iterations);
  ASSERT_EQ(a.prune.culled.size(), b.prune.culled.size());
  for (std::size_t i = 0; i < a.prune.culled.size(); ++i) {
    EXPECT_TRUE(a.prune.culled[i].set == b.prune.culled[i].set);
    EXPECT_EQ(a.prune.culled[i].boundary, b.prune.culled[i].boundary);
  }
}

TEST(Campaign, DeterministicPayloadIsByteIdenticalAcrossThreadCounts) {
  // determinism_campaign() plus the reps entry with fast mode off and an
  // independent sweep: every cell kind, both prune modes.
  Campaign campaign = determinism_campaign();
  Scenario deterministic = campaign.entries[0].scenario;
  deterministic.name = "reps-deterministic";
  deterministic.prune.fast = false;
  campaign.entries.push_back({deterministic, std::nullopt});
  Scenario sweep = campaign.entries[0].scenario;
  sweep.name = "independent-sweep";
  campaign.entries.push_back(
      {sweep, SweepSpec{"p", {0.05, 0.15, 0.25, 0.35}, SweepMode::kIndependent}});
  const std::size_t runs = 5 + 3 + 2 + 5 + 4;

  CampaignRunner runner(campaign);
  const CampaignReport serial = runner.run(1);
  const std::string payload = serial.to_json(/*include_timing=*/false);
  EXPECT_NE(payload.find("\"survivor_hash\""), std::string::npos);
  EXPECT_EQ(serial.total_engine_stats().runs, runs);
  for (const std::size_t e : {std::size_t{0}, std::size_t{3}}) {
    bool any_culled = false;
    for (const ScenarioRun& r : serial.scenarios[e].runs) {
      any_culled = any_culled || r.prune.total_culled > 0;
    }
    EXPECT_TRUE(any_culled) << "workload too gentle to exercise the cull loop";
  }
  // A sweep runs copies of the fault spec; the entry keeps its own.
  EXPECT_EQ(serial.scenarios[4].scenario.fault.params.get_double("p", 0.0), 0.25);
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(threads);
    const CampaignReport parallel = runner.run(threads);
    EXPECT_EQ(payload, parallel.to_json(false));
    EXPECT_EQ(parallel.total_engine_stats().runs, runs);
    ASSERT_EQ(parallel.scenarios.size(), serial.scenarios.size());
    for (std::size_t e = 0; e < serial.scenarios.size(); ++e) {
      ASSERT_EQ(parallel.scenarios[e].runs.size(), serial.scenarios[e].runs.size());
      for (std::size_t i = 0; i < serial.scenarios[e].runs.size(); ++i) {
        SCOPED_TRACE(serial.scenarios[e].scenario.name + " run " + std::to_string(i));
        expect_identical(serial.scenarios[e].runs[i], parallel.scenarios[e].runs[i]);
      }
    }
  }
}

TEST(Campaign, DeterministicPayloadIsIdenticalWarmAndColdCache) {
  EngineCache::instance().clear();
  CampaignRunner runner(determinism_campaign());
  const std::string cold = runner.run(3).to_json(false);
  // Second run: every graph and engine now comes from the cache.
  const EngineCacheStats before = EngineCache::instance().stats();
  const std::string warm = runner.run(3).to_json(false);
  const EngineCacheStats delta = EngineCache::instance().stats() - before;
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(delta.graph_builds, 0u) << "warm run must reuse every cached graph";
  EXPECT_GT(delta.engine_hits, 0u);
}

TEST(Campaign, ReportAccountsEveryRunAndFoldsEngineStats) {
  CampaignRunner runner(determinism_campaign());
  const CampaignReport report = runner.run(2);
  ASSERT_EQ(report.scenarios.size(), 3u);
  EXPECT_EQ(report.scenarios[0].runs.size(), 5u);
  EXPECT_EQ(report.scenarios[1].runs.size(), 3u);
  EXPECT_EQ(report.scenarios[2].runs.size(), 2u);
  // 5 reps + 1 monotone chain of 3 + 2 reps = 10 engine runs.
  EXPECT_EQ(report.total_engine_stats().runs, 10u);
  for (const ScenarioReport& s : report.scenarios) {
    EXPECT_GT(s.n, 0u);
    EXPECT_GT(s.alpha, 0.0);
  }
  // The timing payload includes wall-clock and cache ops on top of the
  // deterministic payload.
  const std::string timed = report.to_json(true);
  EXPECT_NE(timed.find("\"millis\""), std::string::npos);
  EXPECT_NE(timed.find("\"cache\""), std::string::npos);
  EXPECT_EQ(report.to_json(false).find("\"millis\""), std::string::npos);
}

TEST(Campaign, ValidatesEntriesEagerly) {
  Campaign bad;
  Scenario unknown;
  unknown.topology = {"no_such_topology", Params{}};
  bad.entries.push_back({unknown, std::nullopt});
  EXPECT_THROW((void)CampaignRunner(std::move(bad)), PreconditionError);
  Campaign empty;
  EXPECT_THROW((void)CampaignRunner(std::move(empty)), PreconditionError);

  // A malformed sweep behind 40 good repetitions fails at construction —
  // of the runner and of a bare plan — before any graph is built or any
  // engine leased, so nothing runs and nothing reaches a store.
  Scenario good = sweep_scenario();
  good.name = "good";
  good.repetitions = 40;
  Scenario cut = sweep_scenario();
  cut.name = "cut";
  cut.fault = {"sweep_cut", Params{}};
  Scenario random = sweep_scenario();
  random.name = "random";
  const std::vector<CampaignEntry> malformed{
      {cut, SweepSpec{"frac", {0.1, 0.2}, SweepMode::kMonotone}},           // not monotone
      {random, SweepSpec{"no_such_key", {0.1, 0.2}, SweepMode::kIndependent}},  // undeclared
      {random, SweepSpec{"p", {0.2, 0.1}, SweepMode::kMonotone}},           // descending
      {random, SweepSpec{"p", {}, SweepMode::kIndependent}},                // no values
  };
  for (const CampaignEntry& entry : malformed) {
    SCOPED_TRACE(entry.scenario.name + " over " + entry.sweep->param);
    Campaign campaign;
    campaign.entries.push_back({good, std::nullopt});
    campaign.entries.push_back(entry);
    const EngineCacheStats before = EngineCache::instance().stats();
    EXPECT_THROW((void)CampaignRunner(campaign), PreconditionError);
    EXPECT_THROW((void)CampaignPlan(campaign, 2), PreconditionError);
    const EngineCacheStats delta = EngineCache::instance().stats() - before;
    EXPECT_EQ(delta.leases, 0u);
    EXPECT_EQ(delta.graph_hits + delta.graph_builds, 0u);
  }

  // So does a prune number PruneEngine::run would refuse: α must be
  // finite and ε below 1.  α <= 0 ("measure it") and ε <= 0 (the kind's
  // canonical value) stay valid.
  for (const auto& [alpha, epsilon] : {std::pair{std::nan(""), 0.0}, std::pair{HUGE_VAL, 0.0},
                                       std::pair{0.0, std::nan("")}, std::pair{0.0, 1.0},
                                       std::pair{0.0, 1.5}}) {
    SCOPED_TRACE(std::to_string(alpha) + " " + std::to_string(epsilon));
    Scenario bad_prune = sweep_scenario();
    bad_prune.prune.alpha = alpha;
    bad_prune.prune.epsilon = epsilon;
    Campaign campaign;
    campaign.entries.push_back({good, std::nullopt});
    campaign.entries.push_back({bad_prune, std::nullopt});
    const EngineCacheStats before = EngineCache::instance().stats();
    EXPECT_THROW((void)CampaignRunner(campaign), PreconditionError);
    EXPECT_THROW((void)CampaignPlan(campaign, 2), PreconditionError);
    const EngineCacheStats delta = EngineCache::instance().stats() - before;
    EXPECT_EQ(delta.leases, 0u);
    EXPECT_EQ(delta.graph_hits + delta.graph_builds, 0u);
  }
  Scenario defaults = sweep_scenario();
  defaults.prune.alpha = -1.0;
  defaults.prune.epsilon = -1.0;
  Campaign valid;
  valid.entries.push_back({defaults, std::nullopt});
  EXPECT_NO_THROW((void)CampaignRunner(valid));
}

}  // namespace
}  // namespace fne
