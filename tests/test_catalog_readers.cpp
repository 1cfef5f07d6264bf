// Oracle tests for the catalog readers (DESIGN.md Sec. 7.1): model power
// (power::circuit_power), static timing (delay::circuit_delay) and the
// simulation set-up (sim::SimEngine) read each gate's configuration off
// the catalog that characterised it, through CellLibrary::catalog_slot.
//
//  * circuit_power equals the graph walk (tests/oracle/graph_walk.hpp)
//    field for field — per_gate, gate_power, pi_load_power — and
//    circuit_delay equals the graph-walk timer on every net arrival:
//    table3, scaled and random SP netlists, both models, on the
//    original, best and worst netlists;
//  * after optimize() the readers build no catalog: the cache count and
//    counters stay where the optimizer left them;
//  * with a catalog capacity of 1 every lookup past an eviction falls
//    back to a rebuild and still gives the graph walk's values, and the
//    engine still runs the reference loop's replication;
//  * readers racing on one cold library agree with the walk (this one
//    also runs under ThreadSanitizer in CI).

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/suite.hpp"
#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "oracle/graph_walk.hpp"
#include "oracle/reference_sim.hpp"
#include "power/circuit_power.hpp"
#include "random_sp_tree.hpp"
#include "sim/sim_engine.hpp"
#include "util/rng.hpp"

namespace tr {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using netlist::NetId;
using netlist::Netlist;
using power::ModelKind;

constexpr std::uint64_t kSeed = 23;

using Stats = std::map<NetId, SignalStats>;

/// `original`, its minimum-power and its maximum-power reordering.
std::vector<Netlist> three_netlists(const Netlist& original,
                                    const Stats& stats, const Tech& tech) {
  std::vector<Netlist> out = {original, original, original};
  opt::OptimizeOptions options;
  options.threads = 1;
  opt::optimize(out[1], stats, tech, options);
  options.objective = opt::Objective::maximize_power;
  opt::optimize(out[2], stats, tech, options);
  return out;
}

void expect_power_matches_walk(const Netlist& nl, const Stats& stats,
                               const Tech& tech) {
  const power::CircuitActivity activity =
      power::propagate_activity(nl, stats);
  for (const ModelKind kind : {ModelKind::extended, ModelKind::output_only}) {
    const power::CircuitPower fast =
        power::circuit_power(nl, activity, tech, kind);
    const power::CircuitPower walk =
        oracle::circuit_power_walk(nl, activity, tech, kind);
    EXPECT_EQ(fast.per_gate, walk.per_gate) << nl.name();
    EXPECT_EQ(fast.gate_power, walk.gate_power) << nl.name();
    EXPECT_EQ(fast.pi_load_power, walk.pi_load_power) << nl.name();
  }
}

void expect_delay_matches_walk(const Netlist& nl, const Tech& tech) {
  const delay::CircuitDelay fast = delay::circuit_delay(nl, tech);
  const delay::CircuitDelay walk = oracle::circuit_delay_walk(nl, tech);
  EXPECT_EQ(fast.net_arrival, walk.net_arrival) << nl.name();
  EXPECT_EQ(fast.critical_path, walk.critical_path) << nl.name();
}

void expect_readers_match_walk(const Netlist& original, const Stats& stats,
                               const Tech& tech) {
  for (const Netlist& nl : three_netlists(original, stats, tech)) {
    expect_power_matches_walk(nl, stats, tech);
    expect_delay_matches_walk(nl, tech);
  }
}

sim::SimOptions short_sim() {
  sim::SimOptions options;
  options.measure_time = 2e-5;
  options.warmup_time = 1e-6;
  return options;
}

void expect_same_replication(const sim::SimResult& a,
                             const sim::SimResult& b) {
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.internal_node_energy, b.internal_node_energy);
  EXPECT_EQ(a.output_node_energy, b.output_node_energy);
  EXPECT_EQ(a.per_gate_energy, b.per_gate_energy);
  EXPECT_EQ(a.event_count, b.event_count);
}

TEST(CatalogReaders, Table3AndScaledMatchGraphWalk) {
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  for (const benchgen::BenchmarkSpec& spec : benchgen::table3_suite()) {
    const Netlist nl = benchgen::build_benchmark(library, spec);
    expect_readers_match_walk(nl, opt::scenario_a(nl, kSeed), tech);
  }
  for (const char* name : {"syn1000", "syn2000"}) {
    const Netlist nl =
        benchgen::build_benchmark(library, benchgen::suite_entry(name));
    expect_readers_match_walk(nl, opt::scenario_a(nl, kSeed), tech);
  }
}

TEST(CatalogReaders, RandomSpNetlistsMatchGraphWalk) {
  const Tech tech;
  Rng rng(2307);
  for (int round = 0; round < 8; ++round) {
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 16);
    Stats stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.05, 0.95), rng.uniform(1e3, 1e6)};
    }
    expect_readers_match_walk(nl, stats, tech);
  }
}

TEST(CatalogReaders, BuildNoCatalogAfterOptimize) {
  // optimize() builds one catalog per distinct starting configuration;
  // every configuration it commits sits in one of them. Reading the
  // committed netlists must not characterise any configuration again.
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  std::vector<std::vector<Netlist>> circuits;
  std::vector<Stats> stats;
  for (const char* name : {"cm85a", "alu2", "cordic", "syn1000"}) {
    const Netlist nl =
        benchgen::build_benchmark(library, benchgen::suite_entry(name));
    stats.push_back(opt::scenario_a(nl, kSeed));
    circuits.push_back(three_netlists(nl, stats.back(), tech));
  }
  const std::size_t cached = library.cached_catalog_count();
  const celllib::CatalogCacheStats counters = library.catalog_cache_stats();
  ASSERT_GT(cached, 0u);

  for (std::size_t i = 0; i < circuits.size(); ++i) {
    for (const Netlist& nl : circuits[i]) {
      power::circuit_power(nl, power::propagate_activity(nl, stats[i]), tech);
      delay::circuit_delay(nl, tech);
      const sim::SimEngine engine(nl, stats[i], tech, short_sim());
    }
  }
  EXPECT_EQ(library.cached_catalog_count(), cached);
  EXPECT_EQ(library.catalog_cache_stats().misses, counters.misses);
  EXPECT_EQ(library.catalog_cache_stats().hits, counters.hits);
}

TEST(CatalogReaders, EvictedCatalogsFallBackToTheSameValues) {
  const Tech tech;
  CellLibrary unbounded = CellLibrary::standard();
  CellLibrary bounded = CellLibrary::standard();
  bounded.set_catalog_capacity(1);
  for (const char* name : {"cm85a", "count"}) {
    const Stats stats = opt::scenario_a(
        benchgen::build_benchmark(unbounded, benchgen::suite_entry(name)),
        kSeed);
    const std::vector<Netlist> reference = three_netlists(
        benchgen::build_benchmark(unbounded, benchgen::suite_entry(name)),
        stats, tech);
    const std::vector<Netlist> churned = three_netlists(
        benchgen::build_benchmark(bounded, benchgen::suite_entry(name)),
        stats, tech);
    for (std::size_t k = 0; k < churned.size(); ++k) {
      const Netlist& nl = churned[k];
      expect_power_matches_walk(nl, stats, tech);
      expect_delay_matches_walk(nl, tech);
      EXPECT_LE(bounded.cached_catalog_count(), 1u);

      const sim::SimResult fast =
          sim::SimEngine(nl, stats, tech, short_sim()).run(5);
      EXPECT_GT(fast.event_count, 0u);
      expect_same_replication(
          fast, sim::SimEngine(reference[k], stats, tech, short_sim()).run(5));
      expect_same_replication(
          fast, oracle::ReferenceSim(nl, stats, tech, short_sim()).run(5));
    }
  }
  EXPECT_GT(bounded.catalog_cache_stats().evictions, 0u);
}

TEST(CatalogReaders, ConcurrentReadersOnAColdLibraryMatchGraphWalk) {
  // Four threads read four circuits at once from one library no run has
  // warmed, so catalogs are built and their slots registered while the
  // other threads look theirs up.
  const CellLibrary library = CellLibrary::standard();
  const Tech tech;
  const std::vector<std::string> names = {"b1", "cm85a", "alu2", "count"};
  std::vector<Netlist> circuits;
  std::vector<Stats> stats;
  for (const std::string& name : names) {
    circuits.push_back(
        benchgen::build_benchmark(library, benchgen::suite_entry(name)));
    stats.push_back(opt::scenario_a(circuits.back(), kSeed));
  }
  std::vector<power::CircuitPower> powers(circuits.size());
  std::vector<delay::CircuitDelay> delays(circuits.size());
  std::vector<sim::SimResult> runs(circuits.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    threads.emplace_back([&, i] {
      powers[i] = power::circuit_power(
          circuits[i], power::propagate_activity(circuits[i], stats[i]), tech);
      delays[i] = delay::circuit_delay(circuits[i], tech);
      runs[i] = sim::SimEngine(circuits[i], stats[i], tech, short_sim()).run(3);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const power::CircuitPower walk = oracle::circuit_power_walk(
        circuits[i], power::propagate_activity(circuits[i], stats[i]), tech);
    EXPECT_EQ(powers[i].per_gate, walk.per_gate) << names[i];
    EXPECT_EQ(delays[i].net_arrival,
              oracle::circuit_delay_walk(circuits[i], tech).net_arrival)
        << names[i];
    expect_same_replication(
        runs[i],
        oracle::ReferenceSim(circuits[i], stats[i], tech, short_sim()).run(3));
  }
}

}  // namespace
}  // namespace tr
