// Tests for the per-cell reordering catalogs (celllib::ReorderCatalog)
// and the configuration isomorphism they are built on: every derived
// table must equal direct graph characterisation bit for bit, the
// enumeration order must match GateTopology::all_reorderings (and, as a
// set, the brute-force oracle of tests/oracle/), every pin-delay row
// must equal the Elmore walk on its configuration's own graph, and the
// CellLibrary cache must share catalogs.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "celllib/catalog.hpp"
#include "celllib/cell.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "gategraph/isomorphism.hpp"
#include "oracle/reference_oracle.hpp"
#include "random_sp_tree.hpp"
#include "util/rng.hpp"

namespace tr::celllib {
namespace {

using gategraph::GateGraph;
using gategraph::GateTopology;
using gategraph::SpNode;

/// Asserts every node table of every catalog configuration equals what a
/// fresh GateGraph characterisation computes — the oracle the derivation
/// by variable permutation and the node pool must reproduce exactly.
void expect_catalog_matches_graphs(const ReorderCatalog& catalog) {
  for (const CatalogConfig& entry : catalog.configs()) {
    const GateGraph graph(entry.topology);
    const std::vector<int> terminals = graph.terminal_counts();
    ASSERT_EQ(entry.nodes.size(),
              static_cast<std::size_t>(graph.internal_node_count()) + 1);
    // Node order contract: internal nodes ascending, output last.
    for (std::size_t k = 0; k < entry.nodes.size(); ++k) {
      const int id = k + 1 < entry.nodes.size()
                         ? GateGraph::first_internal_node + static_cast<int>(k)
                         : GateGraph::output_node;
      ASSERT_GE(entry.nodes[k], 0);
      ASSERT_LT(entry.nodes[k], static_cast<int>(catalog.nodes().size()));
      const CatalogNode& node =
          catalog.nodes()[static_cast<std::size_t>(entry.nodes[k])];
      EXPECT_EQ(node.is_output, id == GateGraph::output_node);
      EXPECT_EQ(node.terminal_count, terminals[static_cast<std::size_t>(id)]);
      EXPECT_EQ(node.h, graph.h_function(id));
      EXPECT_EQ(node.g, graph.g_function(id));
      ASSERT_EQ(node.dh.size(),
                static_cast<std::size_t>(catalog.input_count()));
      ASSERT_EQ(node.dg.size(),
                static_cast<std::size_t>(catalog.input_count()));
      for (int i = 0; i < catalog.input_count(); ++i) {
        EXPECT_EQ(node.dh[static_cast<std::size_t>(i)],
                  node.h.boolean_difference(i));
        EXPECT_EQ(node.dg[static_cast<std::size_t>(i)],
                  node.g.boolean_difference(i));
      }
    }
  }
}

/// Asserts every pin-delay row of the catalog, under two technologies and
/// two loads, equals delay::gate_delays on the configuration's own graph:
/// the oracle the rows derived from an instance representative must
/// reproduce bit for bit.
void expect_pin_delays_match_graphs(const ReorderCatalog& catalog) {
  Tech fast;
  fast.r_n = 4e3;
  fast.r_p = 7e3;
  fast.c_diff = 1.5e-15;
  for (const Tech& tech : {Tech{}, fast}) {
    for (const double load : {3e-15, 11e-15}) {
      const PinDelayTable& table = catalog.pin_delays(tech, load);
      for (std::size_t c = 0; c < catalog.configs().size(); ++c) {
        SCOPED_TRACE(testing::Message() << "config " << c << " load " << load
                                        << " r_n " << tech.r_n);
        const GateGraph graph(catalog.configs()[c].topology);
        const std::vector<double> want =
            delay::gate_delays(graph, node_capacitances(graph, tech, load),
                               tech)
                .pin_delay;
        const std::span<const double> got = table.pins(static_cast<int>(c));
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t p = 0; p < want.size(); ++p) {
          EXPECT_EQ(got[p], want[p]) << "pin " << p;
        }
      }
    }
  }
}

TEST(ReorderCatalog, EveryLibraryCellMatchesGraphOracle) {
  const CellLibrary lib = CellLibrary::standard();
  for (const std::string& name : lib.cell_names()) {
    SCOPED_TRACE(name);
    const ReorderCatalog catalog =
        ReorderCatalog::build(lib.cell(name).topology());
    expect_catalog_matches_graphs(catalog);
    expect_pin_delays_match_graphs(catalog);
    // Derivation must actually kick in for every multi-config cell with
    // instance-mates (sanity that the fast path is exercised).
    EXPECT_LE(catalog.characterized_instances(),
              static_cast<int>(catalog.configs().size()));
  }
}

TEST(ReorderCatalog, NodePoolHoldsEachDistinctNodeOnce) {
  const CellLibrary lib = CellLibrary::standard();
  // Pinned pool sizes: the configurations are input permutations of a few
  // instance representatives (paper Sec. 5.1), so most nodes repeat.
  const std::pair<const char*, std::pair<std::size_t, std::size_t>> pinned[] =
      {{"aoi222", {48, 13}}, {"aoi33", {72, 15}}};
  for (const auto& [name, sizes] : pinned) {
    SCOPED_TRACE(name);
    const ReorderCatalog catalog =
        ReorderCatalog::build(lib.cell(name).topology());
    EXPECT_EQ(catalog.configs().size(), sizes.first);
    EXPECT_EQ(catalog.nodes().size(), sizes.second);
  }
  // No two pool entries share a key (h, g, terminal count, is-output), and
  // every entry is used by some configuration.
  for (const std::string& name : lib.cell_names()) {
    SCOPED_TRACE(name);
    const ReorderCatalog catalog =
        ReorderCatalog::build(lib.cell(name).topology());
    const auto& pool = catalog.nodes();
    for (std::size_t a = 0; a < pool.size(); ++a) {
      for (std::size_t b = a + 1; b < pool.size(); ++b) {
        EXPECT_FALSE(pool[a].h == pool[b].h && pool[a].g == pool[b].g &&
                     pool[a].terminal_count == pool[b].terminal_count &&
                     pool[a].is_output == pool[b].is_output);
      }
    }
    std::set<int> used;
    for (const CatalogConfig& entry : catalog.configs()) {
      used.insert(entry.nodes.begin(), entry.nodes.end());
    }
    EXPECT_EQ(used.size(), pool.size());
  }
}

TEST(ReorderCatalog, EnumerationOrderMatchesAllReorderingsAndBruteOracle) {
  const CellLibrary lib = CellLibrary::standard();
  for (const char* name : {"nand3", "aoi21", "oai221", "aoi222"}) {
    SCOPED_TRACE(name);
    const GateTopology& start = lib.cell(name).topology();
    const ReorderCatalog catalog = ReorderCatalog::build(start);
    const auto reference = start.all_reorderings();
    ASSERT_EQ(catalog.configs().size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(catalog.configs()[i].topology.canonical_key(),
                reference[i].canonical_key());
    }
    // The brute-force oracle (test-only) agrees as a set and on count.
    std::set<std::string> catalog_keys, brute_keys;
    for (const auto& entry : catalog.configs()) {
      EXPECT_TRUE(catalog_keys.insert(entry.topology.canonical_key()).second);
    }
    for (const auto& config : oracle::all_reorderings_brute(start)) {
      brute_keys.insert(config.canonical_key());
    }
    EXPECT_EQ(catalog_keys, brute_keys);
    EXPECT_EQ(catalog_keys.size(), start.reordering_count_formula());
  }
}

TEST(ReorderCatalog, StartingConfigurationComesFirstWithInstanceFlag) {
  const CellLibrary lib = CellLibrary::standard();
  const GateTopology& oai21 = lib.cell("oai21").topology();
  const ReorderCatalog catalog = ReorderCatalog::build(oai21);
  ASSERT_FALSE(catalog.configs().empty());
  EXPECT_EQ(catalog.configs().front().topology.canonical_key(),
            oai21.canonical_key());
  EXPECT_TRUE(catalog.configs().front().same_instance_as_first);
  // oai21 has two layout instances (paper Sec. 5.1): some configuration
  // must fall outside the starting instance.
  bool saw_other_instance = false;
  const std::string first_key = oai21.instance_key();
  for (const CatalogConfig& entry : catalog.configs()) {
    EXPECT_EQ(entry.same_instance_as_first,
              entry.topology.instance_key() == first_key);
    saw_other_instance = saw_other_instance || !entry.same_instance_as_first;
  }
  EXPECT_TRUE(saw_other_instance);
}

TEST(ReorderCatalog, NonCanonicalStartEnumeratesFromItself) {
  const CellLibrary lib = CellLibrary::standard();
  const GateTopology pivoted = lib.cell("nand3").topology().pivoted(1);
  const ReorderCatalog catalog = ReorderCatalog::build(pivoted);
  EXPECT_EQ(catalog.configs().front().topology.canonical_key(),
            pivoted.canonical_key());
  EXPECT_EQ(catalog.configs().size(), 6u);
  expect_catalog_matches_graphs(catalog);
}

TEST(ReorderCatalog, RandomTopologiesMatchGraphOracle) {
  // Catalog derivation must hold for arbitrary SP shapes, not only the
  // library; same generator as test_sp_random.cpp.
  Rng rng(20260728);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(4));
    std::vector<int> inputs;
    for (int i = 0; i < n; ++i) inputs.push_back(i);
    const GateTopology gate = GateTopology::from_pulldown(
        testutil::random_sp_tree(inputs, rng, /*max_groups=*/3), n);
    if (gate.reordering_count_formula() > 64) continue;  // keep it fast
    SCOPED_TRACE(gate.canonical_key());
    const ReorderCatalog catalog = ReorderCatalog::build(gate);
    expect_catalog_matches_graphs(catalog);
    expect_pin_delays_match_graphs(catalog);
  }
}

TEST(ConfigIsomorphism, SelfIsomorphismIsIdentityShaped) {
  const CellLibrary lib = CellLibrary::standard();
  const GateTopology& aoi22 = lib.cell("aoi22").topology();
  const auto iso = gategraph::find_isomorphism(aoi22, aoi22);
  ASSERT_TRUE(iso.has_value());
  // Self-matching need not be the identity permutation (symmetric gates
  // admit several), but it must be a valid permutation and remap.
  std::set<int> vars(iso->var_perm.begin(), iso->var_perm.end());
  EXPECT_EQ(vars.size(), iso->var_perm.size());
  std::set<int> nodes(iso->node_remap.begin(), iso->node_remap.end());
  EXPECT_EQ(nodes.size(), iso->node_remap.size());
}

TEST(ConfigIsomorphism, RejectsDifferentShapes) {
  const CellLibrary lib = CellLibrary::standard();
  // oai21's two configurations S(P01,T2) and S(T2,P01) are different
  // layout instances — no single input relabelling maps one onto the
  // other.
  const GateTopology& oai21 = lib.cell("oai21").topology();
  const GateTopology flipped = oai21.pivoted(0);
  EXPECT_NE(oai21.instance_key(), flipped.instance_key());
  EXPECT_FALSE(gategraph::find_isomorphism(oai21, flipped).has_value());
  // And across cells of different arity.
  EXPECT_FALSE(gategraph::find_isomorphism(lib.cell("nand2").topology(),
                                           lib.cell("nand3").topology())
                   .has_value());
}

TEST(CellLibraryCatalogCache, SharesOneCatalogPerConfiguration) {
  const CellLibrary lib = CellLibrary::standard();
  const auto first = lib.catalog(lib.cell("nand3").topology());
  const auto second = lib.catalog(lib.cell("nand3").topology());
  EXPECT_EQ(first.get(), second.get());  // same cached instance
  const auto other = lib.catalog(lib.cell("nand2").topology());
  EXPECT_NE(first.get(), other.get());
  // A different configuration of the same cell gets its own catalog
  // (enumeration order starts from the given configuration).
  const auto pivoted = lib.catalog(lib.cell("nand3").topology().pivoted(0));
  EXPECT_NE(first.get(), pivoted.get());
  EXPECT_EQ(pivoted->configs().front().topology.canonical_key(),
            lib.cell("nand3").topology().pivoted(0).canonical_key());
}

TEST(CellLibraryCatalogCache, DistinguishesInputCountsOfIdenticalTrees) {
  // Identical trees declared over different variable universes (trailing
  // vacuous inputs are legal for hand-built topologies) must not collide
  // on one cache entry: their tables have different widths.
  const CellLibrary lib;
  const SpNode stack = SpNode::series({SpNode::transistor(0),
                                       SpNode::transistor(1)});
  const GateTopology two = GateTopology::from_pulldown(stack, 2);
  const GateTopology three = GateTopology::from_pulldown(stack, 3);
  const auto catalog2 = lib.catalog(two);
  const auto catalog3 = lib.catalog(three);
  EXPECT_NE(catalog2.get(), catalog3.get());
  EXPECT_EQ(catalog2->input_count(), 2);
  EXPECT_EQ(catalog3->input_count(), 3);
}

TEST(CellLibraryCatalogCache, CopiedLibraryKeepsWorking) {
  const CellLibrary lib = CellLibrary::standard();
  const auto before = lib.catalog(lib.cell("nand2").topology());
  const CellLibrary copy = lib;  // copies cells and built catalogs
  const auto after = copy.catalog(copy.cell("nand2").topology());
  EXPECT_EQ(before.get(), after.get());  // shared immutable catalog
  EXPECT_EQ(copy.size(), lib.size());
}

}  // namespace
}  // namespace tr::celllib
