// Tests for GateTopology: pivoting (paper Fig. 4), exhaustive reordering
// enumeration vs the brute-force oracle, Table 2 configuration counts and
// layout-instance grouping.

#include <gtest/gtest.h>

#include <set>

#include "celllib/library.hpp"
#include "gategraph/gate_topology.hpp"
#include "oracle/reference_oracle.hpp"
#include "util/error.hpp"

namespace tr::gategraph {
namespace {

SpNode T(int i) { return SpNode::transistor(i); }
SpNode S(std::vector<SpNode> c) { return SpNode::series(std::move(c)); }
SpNode P(std::vector<SpNode> c) { return SpNode::parallel(std::move(c)); }

GateTopology oai21() {
  // y = !((a0+a1) a2), pulldown = series(parallel(a0,a1), a2).
  return GateTopology::from_pulldown(S({P({T(0), T(1)}), T(2)}), 3);
}

TEST(GateTopology, ConstructionDerivesDualPullup) {
  const GateTopology g = oai21();
  EXPECT_EQ(g.transistor_count(), 6);
  EXPECT_EQ(g.internal_node_count(), 2);  // one N-side gap + one P-side gap
  EXPECT_EQ(g.pmos().kind, SpNode::Kind::parallel);
}

TEST(GateTopology, RejectsNonComplementaryNetworks) {
  // Pull-up that is NOT the complement of the pull-down.
  EXPECT_THROW(GateTopology(S({T(0), T(1)}), S({T(0), T(1)}), 2), Error);
}

TEST(GateTopology, OutputFunction) {
  const GateTopology g = oai21();
  const auto a0 = boolfn::TruthTable::variable(3, 0);
  const auto a1 = boolfn::TruthTable::variable(3, 1);
  const auto a2 = boolfn::TruthTable::variable(3, 2);
  EXPECT_EQ(g.output_function(), ~((a0 | a1) & a2));
}

TEST(GateTopology, PivotIsAnInvolution) {
  const GateTopology g = oai21();
  for (int gap = 0; gap < g.internal_node_count(); ++gap) {
    EXPECT_EQ(g.pivoted(gap).pivoted(gap).canonical_key(), g.canonical_key());
  }
  EXPECT_THROW(g.pivoted(99), Error);
  EXPECT_THROW(g.pivoted(-1), Error);
}

TEST(GateTopology, PivotPreservesFunction) {
  const GateTopology g = oai21();
  for (int gap = 0; gap < g.internal_node_count(); ++gap) {
    EXPECT_EQ(g.pivoted(gap).output_function(), g.output_function());
  }
}

TEST(GateTopology, PivotTransposesAdjacentSeriesElements) {
  // nand3 pull-down: series(t0, t1, t2), gaps 0 and 1.
  const GateTopology g = GateTopology::from_pulldown(S({T(0), T(1), T(2)}), 3);
  const GateTopology p0 = g.pivoted(0);
  EXPECT_EQ(p0.nmos().children[0].input, 1);
  EXPECT_EQ(p0.nmos().children[1].input, 0);
  EXPECT_EQ(p0.nmos().children[2].input, 2);
  const GateTopology p1 = g.pivoted(1);
  EXPECT_EQ(p1.nmos().children[0].input, 0);
  EXPECT_EQ(p1.nmos().children[1].input, 2);
  EXPECT_EQ(p1.nmos().children[2].input, 1);
}

TEST(GateTopology, Fig5GeneratesAllFourOai21Reorderings) {
  // Paper Fig. 5: the pivot exploration of y=(a1+a2)b yields exactly the
  // four configurations (A)-(D) of Fig. 1(a).
  const auto all = oai21().all_reorderings();
  EXPECT_EQ(all.size(), 4u);
  std::set<std::string> keys;
  for (const auto& config : all) keys.insert(config.canonical_key());
  EXPECT_EQ(keys.size(), 4u);
}

TEST(GateTopology, EnumerationStartsWithSelf) {
  const GateTopology g = oai21();
  const auto all = g.all_reorderings();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front().canonical_key(), g.canonical_key());
}

TEST(GateTopology, SingleGapGateHasBothConfigs) {
  // nand2: one internal node; the paper's literal pseudo-code would lose
  // the starting configuration (documented deviation).
  const GateTopology g = GateTopology::from_pulldown(S({T(0), T(1)}), 2);
  EXPECT_EQ(g.all_reorderings().size(), 2u);
}

TEST(GateTopology, InverterHasSingleConfig) {
  const GateTopology g = GateTopology::from_pulldown(T(0), 1);
  EXPECT_EQ(g.internal_node_count(), 0);
  EXPECT_EQ(g.all_reorderings().size(), 1u);
  EXPECT_EQ(g.reordering_count_formula(), 1u);
}

TEST(GateTopology, PivotEnumerationMatchesBruteForceOracle) {
  // The paper's recursive pivoting (Fig. 4) must generate *exactly* the
  // set of orderings the direct constructive enumeration produces
  // ([5] proves completeness; this is the reproduction of that proof).
  const std::vector<SpNode> pulldowns = {
      S({T(0), T(1)}),
      S({T(0), T(1), T(2)}),
      S({T(0), T(1), T(2), T(3)}),
      P({T(0), T(1), T(2)}),
      P({S({T(0), T(1)}), T(2)}),
      S({P({T(0), T(1)}), T(2)}),
      P({S({T(0), T(1)}), S({T(2), T(3)})}),
      S({P({T(0), T(1)}), P({T(2), T(3)})}),
      P({S({T(0), T(1)}), T(2), T(3)}),
      S({P({T(0), T(1)}), T(2), T(3)}),
      P({S({T(0), T(1)}), S({T(2), T(3)}), T(4)}),
      S({P({T(0), T(1)}), P({T(2), T(3)}), T(4)}),
      P({S({T(0), T(1), T(2)}), T(3)}),
  };
  for (const SpNode& pd : pulldowns) {
    const GateTopology g =
        GateTopology::from_pulldown(pd, max_input_plus_one(pd));
    std::set<std::string> pivot_keys, brute_keys;
    for (const auto& c : g.all_reorderings()) {
      EXPECT_TRUE(pivot_keys.insert(c.canonical_key()).second)
          << "pivot enumeration emitted a duplicate";
    }
    for (const auto& c : oracle::all_reorderings_brute(g)) {
      brute_keys.insert(c.canonical_key());
    }
    EXPECT_EQ(pivot_keys, brute_keys) << "for pulldown " << encode(pd);
    EXPECT_EQ(pivot_keys.size(), g.reordering_count_formula());
  }
}

TEST(GateTopology, Table2ConfigurationCounts) {
  // Paper Table 2 (#C column). nand3 = 6, aoi211 = 12, aoi221 = 24,
  // aoi222 = 48, oai21 = 4 and the aoi/oai duals. The scanned "nor4 = 18"
  // is an OCR artefact: a 4-stack has 4! = 24 orderings (DESIGN.md Sec. 3).
  const celllib::CellLibrary lib = celllib::CellLibrary::standard();
  const std::map<std::string, std::uint64_t> expected = {
      {"inv", 1},     {"nand2", 2},  {"nand3", 6},  {"nand4", 24},
      {"nor2", 2},    {"nor3", 6},   {"nor4", 24},  {"aoi21", 4},
      {"oai21", 4},   {"aoi22", 8},  {"oai22", 8},  {"aoi31", 12},
      {"oai31", 12},  {"aoi211", 12}, {"oai211", 12},
      {"aoi221", 24}, {"oai221", 24}, {"aoi222", 48}, {"oai222", 48},
      {"aoi32", 24},  {"oai32", 24},  {"aoi33", 72},  {"oai33", 72},
  };
  for (const auto& [name, count] : expected) {
    const auto& cell = lib.cell(name);
    EXPECT_EQ(cell.topology().reordering_count_formula(), count) << name;
    EXPECT_EQ(cell.topology().all_reorderings().size(), count) << name;
  }
}

TEST(GateTopology, InstanceGroupingOai21) {
  // Paper Sec. 5.1: oai21 needs two sea-of-gates instances, oai21[A]
  // covering configurations (A),(B) and oai21[B] covering (C),(D).
  const auto groups = group_by_instance(oai21().all_reorderings());
  EXPECT_EQ(groups.size(), 2u);
  for (const auto& [key, configs] : groups) {
    EXPECT_EQ(configs.size(), 2u);
  }
}

TEST(GateTopology, InstanceGroupingNand3) {
  // All 6 orderings of nand3 are input permutations of one layout.
  const GateTopology g = GateTopology::from_pulldown(S({T(0), T(1), T(2)}), 3);
  const auto groups = group_by_instance(g.all_reorderings());
  EXPECT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->second.size(), 6u);
}

TEST(GateTopology, ReorderingsShareFunctionAndCounts) {
  const celllib::CellLibrary lib = celllib::CellLibrary::standard();
  for (const std::string& name : lib.cell_names()) {
    const auto& cell = lib.cell(name);
    const auto all = cell.topology().all_reorderings();
    for (const auto& config : all) {
      EXPECT_EQ(config.output_function(), cell.function()) << name;
      EXPECT_EQ(config.transistor_count(), cell.transistor_count()) << name;
      EXPECT_EQ(config.internal_node_count(),
                cell.topology().internal_node_count())
          << name;
    }
  }
}

}  // namespace
}  // namespace tr::gategraph
