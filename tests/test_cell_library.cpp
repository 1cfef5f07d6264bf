// Tests for the Table 2 cell library: functions, counts, capacitances,
// instance structure, and function matching.

#include <gtest/gtest.h>

#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "gategraph/gate_graph.hpp"
#include "util/error.hpp"

namespace tr::celllib {
namespace {

using boolfn::TruthTable;

TruthTable var(int n, int j) { return TruthTable::variable(n, j); }

TEST(CellLibrary, HasThePaperCells) {
  const CellLibrary lib = CellLibrary::standard();
  for (const char* name :
       {"inv", "nand2", "nand3", "nand4", "nor2", "nor3", "nor4", "aoi21",
        "aoi22", "aoi31", "aoi211", "aoi221", "aoi222", "oai21", "oai22",
        "oai31", "oai211", "oai221", "oai222", "aoi32", "oai32", "aoi33",
        "oai33"}) {
    EXPECT_TRUE(lib.contains(name)) << name;
  }
  EXPECT_EQ(lib.size(), 23u);
}

TEST(CellLibrary, CellFunctions) {
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_EQ(lib.cell("inv").function(), ~var(1, 0));
  EXPECT_EQ(lib.cell("nand2").function(), ~(var(2, 0) & var(2, 1)));
  EXPECT_EQ(lib.cell("nor3").function(),
            ~(var(3, 0) | var(3, 1) | var(3, 2)));
  EXPECT_EQ(lib.cell("aoi21").function(),
            ~((var(3, 0) & var(3, 1)) | var(3, 2)));
  EXPECT_EQ(lib.cell("oai21").function(),
            ~((var(3, 0) | var(3, 1)) & var(3, 2)));
  EXPECT_EQ(lib.cell("aoi22").function(),
            ~((var(4, 0) & var(4, 1)) | (var(4, 2) & var(4, 3))));
  EXPECT_EQ(lib.cell("oai222").function(),
            ~((var(6, 0) | var(6, 1)) & (var(6, 2) | var(6, 3)) &
              (var(6, 4) | var(6, 5))));
}

TEST(CellLibrary, TransistorCountsAndArea) {
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_EQ(lib.cell("inv").transistor_count(), 2);
  EXPECT_EQ(lib.cell("nand2").transistor_count(), 4);
  EXPECT_EQ(lib.cell("aoi222").transistor_count(), 12);
  EXPECT_DOUBLE_EQ(lib.cell("nand3").area(), 6.0);
}

TEST(CellLibrary, PinNamesAndCapacitance) {
  const CellLibrary lib = CellLibrary::standard();
  const Cell& aoi21 = lib.cell("aoi21");
  EXPECT_EQ(aoi21.pin_names(),
            (std::vector<std::string>{"a", "b", "c"}));
  const Tech tech = default_tech();
  // Every pin drives exactly one N + one P device: 2 gate terminals.
  for (int pin = 0; pin < aoi21.input_count(); ++pin) {
    EXPECT_DOUBLE_EQ(aoi21.pin_capacitance(tech, pin), 2.0 * tech.c_gate);
  }
  EXPECT_THROW(aoi21.pin_capacitance(tech, 3), Error);
}

TEST(CellLibrary, PinCapacitanceHoldsForEveryReordering) {
  // Cell counts each pin's devices once, on its canonical configuration;
  // that is sound only because reordering never changes how many devices
  // a pin gates.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech = default_tech();
  for (const std::string& name : lib.cell_names()) {
    SCOPED_TRACE(name);
    const Cell& cell = lib.cell(name);
    for (const gategraph::GateTopology& config :
         cell.topology().all_reorderings()) {
      const gategraph::GateGraph graph(config);
      for (int pin = 0; pin < cell.input_count(); ++pin) {
        int devices = 0;
        for (const auto& t : graph.transistors()) devices += t.input == pin;
        EXPECT_EQ(cell.pin_capacitance(tech, pin),
                  tech.c_gate * static_cast<double>(devices));
      }
    }
  }
}

TEST(CellLibrary, InstanceCounts) {
  // Paper Sec. 5.1: oai21 splits into instances [A] and [B]; stacks of
  // identical devices form a single instance.
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_EQ(lib.cell("oai21").instance_count(), 2);
  EXPECT_EQ(lib.cell("aoi21").instance_count(), 2);
  EXPECT_EQ(lib.cell("nand3").instance_count(), 1);
  EXPECT_EQ(lib.cell("nor4").instance_count(), 1);
  EXPECT_EQ(lib.cell("inv").instance_count(), 1);
}

TEST(CellLibrary, DuplicateCellRejected) {
  CellLibrary lib = CellLibrary::standard();
  EXPECT_THROW(
      lib.add(Cell("inv", {"a"}, gategraph::SpNode::transistor(0))), Error);
}

TEST(CellLibrary, UnknownCellLookup) {
  const CellLibrary lib = CellLibrary::standard();
  EXPECT_THROW(lib.cell("xor2"), Error);
  EXPECT_EQ(lib.find("xor2"), nullptr);
  EXPECT_NE(lib.find("nand2"), nullptr);
}

TEST(CellLibrary, MatchFunctionIdentity) {
  const CellLibrary lib = CellLibrary::standard();
  for (const std::string& name : lib.cell_names()) {
    const auto match = lib.match_function(lib.cell(name).function());
    ASSERT_TRUE(match.has_value()) << name;
    // nand/aoi families have symmetric-but-distinct shapes; the matched
    // cell must compute the same function.
    const auto& [matched_cell, pin_to_var] = *match;
    EXPECT_EQ(lib.cell(matched_cell).function().var_count(),
              lib.cell(name).function().var_count());
  }
}

TEST(CellLibrary, MatchFunctionUnderPermutation) {
  const CellLibrary lib = CellLibrary::standard();
  // aoi21 with pins permuted: f = !(cb + a) over (a,b,c).
  const TruthTable f = ~((var(3, 2) & var(3, 1)) | var(3, 0));
  const auto match = lib.match_function(f);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, "aoi21");
  // Verify the binding: cell.function permuted by pin_to_var equals f.
  const auto& pin_to_var = match->second;
  std::vector<int> perm(3, -1);
  std::vector<bool> used(3, false);
  for (std::size_t pin = 0; pin < pin_to_var.size(); ++pin) {
    perm[pin] = pin_to_var[pin];
    used[static_cast<std::size_t>(pin_to_var[pin])] = true;
  }
  EXPECT_EQ(lib.cell("aoi21").function().permuted(perm), f);
}

TEST(CellLibrary, MatchFunctionWidensVacuousVariables) {
  const CellLibrary lib = CellLibrary::standard();
  // nor2 over variables {1, 3} of a 4-variable space.
  const TruthTable f = ~(var(4, 1) | var(4, 3));
  const auto match = lib.match_function(f);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->first, "nor2");
  EXPECT_EQ(match->second, (std::vector<int>{1, 3}));
}

TEST(CellLibrary, MatchFunctionRejectsNonLibraryShapes) {
  const CellLibrary lib = CellLibrary::standard();
  // XOR is not in the library (not a single SP complementary gate here).
  EXPECT_FALSE(lib.match_function(var(2, 0) ^ var(2, 1)).has_value());
  // AND (positive-unate) is not directly implementable either.
  EXPECT_FALSE(lib.match_function(var(2, 0) & var(2, 1)).has_value());
}

TEST(CellLibrary, NodeCapacitances) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech = default_tech();
  const gategraph::GateGraph graph(lib.cell("nand2").topology());
  const double load = 10e-15;
  const auto caps = node_capacitances(graph, tech, load);
  ASSERT_EQ(caps.size(), 4u);  // vss, vdd, y, one internal node
  EXPECT_DOUBLE_EQ(caps[gategraph::GateGraph::vss_node], 0.0);
  EXPECT_DOUBLE_EQ(caps[gategraph::GateGraph::vdd_node], 0.0);
  // y: 1 N terminal + 2 P terminals = 3 diffusion terminals + load.
  EXPECT_DOUBLE_EQ(caps[gategraph::GateGraph::output_node],
                   3.0 * tech.c_diff + load);
  // internal node: 2 terminals.
  EXPECT_DOUBLE_EQ(caps[3], 2.0 * tech.c_diff);
}

TEST(CellLibrary, EnergyPerTransitionConvention) {
  Tech tech;
  tech.vdd = 5.0;
  EXPECT_DOUBLE_EQ(tech.energy_per_transition(2e-15), 0.5 * 2e-15 * 25.0);
}

// ---------------------------------------------------------------------------
// Bounded catalog cache (ISSUE 8): the server keeps one process-lifetime
// library, so the reorder-catalog cache needs a capacity bound with LRU
// eviction and counters a drain-time metrics dump can report.

TEST(CellLibraryCatalogCache, UnboundedByDefaultAndCountsHits) {
  CellLibrary lib = CellLibrary::standard();
  EXPECT_EQ(lib.catalog_capacity(), 0u);  // 0 = unbounded
  EXPECT_EQ(lib.cached_catalog_count(), 0u);

  const auto first = lib.catalog(lib.cell("nand2").topology());
  const auto again = lib.catalog(lib.cell("nand2").topology());
  EXPECT_EQ(first.get(), again.get());  // same shared catalog instance

  const CatalogCacheStats stats = lib.catalog_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.lookups(), 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(lib.cached_catalog_count(), 1u);
}

TEST(CellLibraryCatalogCache, EvictsLeastRecentlyUsedAtCapacity) {
  CellLibrary lib = CellLibrary::standard();
  lib.set_catalog_capacity(2);
  EXPECT_EQ(lib.catalog_capacity(), 2u);

  lib.catalog(lib.cell("nand2").topology());  // miss; cache {nand2}
  lib.catalog(lib.cell("nor2").topology());   // miss; cache {nor2, nand2}
  lib.catalog(lib.cell("nand2").topology());  // hit; nand2 becomes MRU

  // A third distinct form must evict nor2 (the LRU), not nand2.
  lib.catalog(lib.cell("nand3").topology());  // miss; evicts nor2
  EXPECT_EQ(lib.cached_catalog_count(), 2u);
  CatalogCacheStats stats = lib.catalog_cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);

  // nor2 was evicted: asking again re-misses (and evicts nand2, which
  // became LRU once nand3 was inserted)...
  lib.catalog(lib.cell("nor2").topology());
  stats = lib.catalog_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  // ...while nand3, the recently used survivor, still hits.
  lib.catalog(lib.cell("nand3").topology());
  EXPECT_EQ(lib.catalog_cache_stats().hits, 2u);
  EXPECT_EQ(lib.cached_catalog_count(), 2u);
}

TEST(CellLibraryCatalogCache, EvictedCatalogStaysUsableViaSharedOwnership) {
  CellLibrary lib = CellLibrary::standard();
  lib.set_catalog_capacity(1);
  const auto held = lib.catalog(lib.cell("nand2").topology());
  lib.catalog(lib.cell("nor2").topology());  // evicts nand2 from the cache
  EXPECT_EQ(lib.catalog_cache_stats().evictions, 1u);
  // The shared_ptr the caller holds outlives the cache entry; a rebuild
  // after the eviction produces an equivalent (but distinct) catalog.
  ASSERT_NE(held, nullptr);
  const auto rebuilt = lib.catalog(lib.cell("nand2").topology());
  EXPECT_NE(held.get(), rebuilt.get());
  EXPECT_EQ(held->configs().size(), rebuilt->configs().size());
}

TEST(CellLibraryCatalogCache, ShrinkingCapacityEvictsImmediately) {
  CellLibrary lib = CellLibrary::standard();
  lib.catalog(lib.cell("nand2").topology());
  lib.catalog(lib.cell("nor2").topology());
  lib.catalog(lib.cell("nand3").topology());
  EXPECT_EQ(lib.cached_catalog_count(), 3u);

  lib.set_catalog_capacity(1);  // trims to the single most recent entry
  EXPECT_EQ(lib.cached_catalog_count(), 1u);
  EXPECT_EQ(lib.catalog_cache_stats().evictions, 2u);
  // The survivor is the MRU form, nand3.
  lib.catalog(lib.cell("nand3").topology());
  EXPECT_EQ(lib.catalog_cache_stats().hits, 1u);
}

}  // namespace
}  // namespace tr::celllib
