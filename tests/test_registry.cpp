// Registry contracts (DESIGN.md §6): every registered name builds, every
// topology honors its declared vertex-count contract, and bad inputs fail
// with REQUIRE-style errors naming the offender.
#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "topology/mesh.hpp"
#include "util/require.hpp"

namespace fne {
namespace {

/// The message of the PreconditionError `fn` throws ("" if none).
template <typename Fn>
[[nodiscard]] std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected PreconditionError";
  return "";
}

[[nodiscard]] bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

TEST(TopologyRegistry, EveryRegisteredNameBuildsWithDefaults) {
  TopologyRegistry& reg = TopologyRegistry::instance();
  const std::vector<std::string> names = reg.names();
  ASSERT_GE(names.size(), 8u) << "ISSUE acceptance: >= 8 topologies by name";
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    if (name == "file") {
      // The one entry with no default workload: its required `path`
      // param points at external data (tests/test_ingest.cpp covers it).
      EXPECT_THROW((void)reg.build(name, Params{}, /*seed=*/7), PreconditionError);
      continue;
    }
    const Graph g = reg.build(name, Params{}, /*seed=*/7);
    EXPECT_GT(g.num_vertices(), 0u);
    EXPECT_EQ(g.num_vertices(), reg.expected_n(name, Params{}));
  }
}

TEST(TopologyRegistry, VertexCountContractsMatchTheFamilies) {
  TopologyRegistry& reg = TopologyRegistry::instance();
  // The 2^dims families whose size was previously implicit.
  EXPECT_EQ(reg.build("hypercube", Params{{"dims", "6"}}, 1).num_vertices(), 64u);
  EXPECT_EQ(reg.build("debruijn", Params{{"dims", "7"}}, 1).num_vertices(), 128u);
  EXPECT_EQ(reg.build("shuffle_exchange", Params{{"dims", "7"}}, 1).num_vertices(), 128u);
  // side^dims meshes and the parameterized classics.
  EXPECT_EQ(reg.build("mesh", Params{{"side", "5"}, {"dims", "3"}}, 1).num_vertices(), 125u);
  EXPECT_EQ(reg.build("barbell", Params{{"half", "10"}}, 1).num_vertices(), 20u);
  EXPECT_EQ(reg.build("butterfly", Params{{"dims", "4"}}, 1).num_vertices(), 5u * 16u);
  EXPECT_EQ(reg.build("butterfly", Params{{"dims", "4"}, {"wrapped", "1"}}, 1).num_vertices(),
            4u * 16u);
  EXPECT_EQ(reg.build("chain_expander",
                      Params{{"base_n", "16"}, {"base_degree", "4"}, {"k", "4"}}, 1)
                .num_vertices(),
            16u + 4u * 32u);
}

TEST(TopologyRegistry, RegisteredMeshMatchesTheMeshClass) {
  const Graph via_registry =
      TopologyRegistry::instance().build("mesh", Params{{"side", "6"}, {"dims", "2"}}, 3);
  const Mesh direct = Mesh::cube(6, 2);
  EXPECT_EQ(via_registry.num_vertices(), direct.graph().num_vertices());
  EXPECT_EQ(via_registry.num_edges(), direct.graph().num_edges());
}

TEST(TopologyRegistry, SeededFamiliesAreDeterministicInTheSeed) {
  TopologyRegistry& reg = TopologyRegistry::instance();
  const Params p{{"n", "64"}, {"degree", "4"}};
  const Graph a = reg.build("random_regular", p, 11);
  const Graph b = reg.build("random_regular", p, 11);
  const Graph c = reg.build("random_regular", p, 12);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.edges().begin(), a.edges().end(), b.edges().begin()));
  EXPECT_FALSE(a.num_edges() == c.num_edges() &&
               std::equal(a.edges().begin(), a.edges().end(), c.edges().begin()));
}

TEST(TopologyRegistry, RejectsUnknownNamesKeysAndBadValues) {
  TopologyRegistry& reg = TopologyRegistry::instance();
  const std::string unknown = error_of([&] { (void)reg.build("no_such_family", Params{}, 1); });
  EXPECT_TRUE(contains(unknown, "unknown topology 'no_such_family' (registered: barbell, "
                                "butterfly, can, chain_expander, complete, cycle, debruijn, "))
      << unknown;
  // Undeclared key: the old free-function API silently ignored typos.
  const std::string typo = error_of([&] { (void)reg.build("hypercube", Params{{"dim", "6"}}, 1); });
  EXPECT_TRUE(contains(typo, "topology 'hypercube' has no param 'dim' (declared: dims)")) << typo;
  // Declared keys are listed in declaration order; every entry point checks.
  const std::string sides =
      error_of([&] { (void)reg.expected_n("mesh", Params{{"sides", "8"}}); });
  EXPECT_TRUE(contains(sides, "topology 'mesh' has no param 'sides' (declared: side, dims)"))
      << sides;
  // Out-of-range and malformed values.
  EXPECT_THROW((void)reg.build("hypercube", Params{{"dims", "99"}}, 1), PreconditionError);
  EXPECT_THROW((void)reg.build("hypercube", Params{{"dims", "six"}}, 1), PreconditionError);
  EXPECT_THROW((void)reg.build("random_regular", Params{{"n", "15"}, {"degree", "3"}}, 1),
               PreconditionError);
}

TEST(FaultModelRegistry, EveryRegisteredNameBuildsOnASmallMesh) {
  FaultModelRegistry& reg = FaultModelRegistry::instance();
  const std::vector<std::string> names = reg.names();
  ASSERT_GE(names.size(), 3u) << "ISSUE acceptance: >= 3 fault models by name";
  const Graph g = TopologyRegistry::instance().build("mesh", Params{{"side", "8"}}, 5);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const VertexSet alive = reg.build(name, g, Params{}, /*seed=*/9);
    EXPECT_EQ(alive.universe_size(), g.num_vertices());
    EXPECT_LE(alive.count(), g.num_vertices());
  }
}

TEST(FaultModelRegistry, BudgetAndFractionResolveConsistently) {
  FaultModelRegistry& reg = FaultModelRegistry::instance();
  const Graph g = TopologyRegistry::instance().build("mesh", Params{{"side", "8"}}, 5);
  const VertexSet by_budget = reg.build("high_degree", g, Params{{"budget", "6"}}, 1);
  EXPECT_EQ(g.num_vertices() - by_budget.count(), 6u);
  const VertexSet by_frac = reg.build("random_exact", g, Params{{"frac", "0.25"}}, 1);
  EXPECT_EQ(g.num_vertices() - by_frac.count(), g.num_vertices() / 4);
  // `none` is the all-alive baseline.
  EXPECT_EQ(reg.build("none", g, Params{}, 1).count(), g.num_vertices());
}

TEST(FaultModelRegistry, RejectsUnknownNamesKeysAndBadValues) {
  FaultModelRegistry& reg = FaultModelRegistry::instance();
  const Graph g = TopologyRegistry::instance().build("mesh", Params{{"side", "6"}}, 5);
  const std::string unknown = error_of([&] { (void)reg.build("no_such_model", g, Params{}, 1); });
  EXPECT_TRUE(contains(unknown, "unknown fault model 'no_such_model' (registered: bisection, "
                                "high_degree, none, random, random_exact, separator, "
                                "sweep_cut)"))
      << unknown;
  const std::string typo =
      error_of([&] { (void)reg.build("random", g, Params{{"prob", "0.1"}}, 1); });
  EXPECT_TRUE(contains(typo, "fault model 'random' has no param 'prob' (declared: p)")) << typo;
  const std::string none = error_of([&] { (void)reg.build("none", g, Params{{"p", "0.1"}}, 1); });
  EXPECT_TRUE(contains(none, "fault model 'none' has no param 'p' (declared: none)")) << none;
  EXPECT_THROW((void)reg.build("random", g, Params{{"p", "1.5"}}, 1), PreconditionError);
  EXPECT_THROW((void)reg.build("high_degree", g, Params{{"budget", "9999"}}, 1),
               PreconditionError);
}

TEST(TopologyRegistry, StructureMetadataDescribesTheCoordinateFamilies) {
  TopologyRegistry& reg = TopologyRegistry::instance();

  const Params mesh = reg.structure("mesh", Params{{"side", "8"}, {"dims", "3"}});
  EXPECT_EQ(mesh.get_int("side", 0), 8);
  EXPECT_EQ(mesh.get_int("dims", 0), 3);
  EXPECT_FALSE(mesh.get_bool("wrap", true));
  EXPECT_TRUE(reg.structure("torus", Params{{"side", "6"}}).get_bool("wrap", false));

  const Params bf = reg.structure("butterfly", Params{{"dims", "5"}});
  EXPECT_EQ(bf.get_int("levels", 0), 6);
  EXPECT_EQ(bf.get_int("rows", 0), 32);
  const Params bfw = reg.structure("butterfly", Params{{"dims", "5"}, {"wrapped", "1"}});
  EXPECT_EQ(bfw.get_int("levels", 0), 5);

  EXPECT_EQ(reg.structure("debruijn", Params{{"dims", "7"}}).get_int("dims", 0), 7);
  EXPECT_EQ(reg.structure("hypercube", Params{}).get_int("dims", 0), 8);
  // Families without declared structure report none (and still validate
  // their params).
  EXPECT_TRUE(reg.structure("random_regular", Params{}).empty());
  EXPECT_THROW((void)reg.structure("mesh", Params{{"sides", "8"}}), PreconditionError);
}

TEST(TopologyRegistry, MeshForRebuildsTheCoordinateObjectFromAScenarioSpec) {
  // The satellite use case: a coordinate-dependent analysis (mesh span,
  // embedding) gets its Mesh VALUE from the registry instead of a
  // bespoke constructor.
  const Params params = Params{{"side", "7"}, {"dims", "2"}};
  const Mesh mesh = mesh_for("mesh", params);
  EXPECT_EQ(mesh.dims(), 2u);
  EXPECT_EQ(mesh.sides(), (std::vector<vid>{7, 7}));
  EXPECT_FALSE(mesh.wraps());
  // Bit-for-bit the graph the registry itself builds.
  const Graph via_registry = TopologyRegistry::instance().build("mesh", params, 99);
  EXPECT_EQ(mesh.graph().num_vertices(), via_registry.num_vertices());
  EXPECT_EQ(mesh.graph().num_edges(), via_registry.num_edges());

  EXPECT_TRUE(mesh_for("torus", Params{{"side", "5"}}).wraps());
  EXPECT_THROW((void)mesh_for("hypercube", Params{}), PreconditionError);
}

TEST(TopologyRegistry, SeededFlagsSeparateDeterministicFromRandomFamilies) {
  TopologyRegistry& reg = TopologyRegistry::instance();
  for (const char* name : {"mesh", "torus", "hypercube", "debruijn", "shuffle_exchange",
                           "butterfly", "complete", "cycle", "path", "star", "barbell"}) {
    EXPECT_FALSE(reg.at(name).seeded) << name;
  }
  for (const char* name :
       {"random_regular", "erdos_renyi", "can", "chain_expander", "multibutterfly"}) {
    EXPECT_TRUE(reg.at(name).seeded) << name;
  }
}

TEST(FaultModelRegistry, MonotoneDeclarationsNameTheCoupledParams) {
  FaultModelRegistry& reg = FaultModelRegistry::instance();
  EXPECT_EQ(reg.at("random").monotone_params, std::vector<std::string>{"p"});
  EXPECT_EQ(reg.at("high_degree").monotone_params,
            (std::vector<std::string>{"budget", "frac"}));
  // Floyd's sampling reshuffles with the budget — must stay undeclared.
  EXPECT_TRUE(reg.at("random_exact").monotone_params.empty());
  EXPECT_TRUE(reg.at("sweep_cut").monotone_params.empty());
  EXPECT_TRUE(reg.at("bisection").monotone_params.empty());
}

TEST(Params, ParseRoundTripAndTypedGetters) {
  const Params p = Params::parse("side=24,dims=2,wrap");
  EXPECT_EQ(p.get_int("side", 0), 24);
  EXPECT_EQ(p.get_int("dims", 0), 2);
  EXPECT_TRUE(p.get_bool("wrap", false));
  EXPECT_EQ(p.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(Params::parse(p.to_string()), p);
  // Doubles round-trip losslessly through set() (sweeps must run at
  // exactly the stored probe values).
  const double tiny = 2.8066438062992287e-06;
  EXPECT_EQ(Params().set("p", tiny).get_double("p", 0.0), tiny);
  const Params bad{{"x", "abc"}};
  EXPECT_THROW((void)bad.get_int("x", 0), PreconditionError);
  EXPECT_THROW((void)bad.get_double("x", 0.0), PreconditionError);
  EXPECT_THROW((void)bad.get_bool("x", false), PreconditionError);
}

}  // namespace
}  // namespace fne
