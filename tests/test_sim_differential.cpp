// Differential suite pinning SimEngine bit-identical to the pre-rewrite
// reference event loop (tests/oracle/reference_sim.hpp, DESIGN.md
// Sec. 10.5): same SimResult for every seed under the Elmore, zero- and
// unit-delay models, truncation (uniform and mixed budgets), frozen
// inputs, seeded random SP-tree netlists and every catalog
// configuration of every library cell; plus the
// scratch-reuse contracts — zero steady-state allocation on a scaled
// circuit and Monte-Carlo thread-scratch safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "benchgen/generators.hpp"
#include "benchgen/suite.hpp"
#include "celllib/catalog.hpp"
#include "celllib/cell.hpp"
#include "celllib/library.hpp"
#include "opt/scenario.hpp"
#include "oracle/reference_sim.hpp"
#include "random_sp_tree.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/sim_engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: global operator new/delete instrumented so the
// no-allocation-growth stress can observe the steady state directly.
// Counting is gated by a flag, so gtest bookkeeping outside the measured
// window stays invisible.
// ---------------------------------------------------------------------------
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow form forwards to the counted one, as libstdc++'s default
// does; replacing it keeps a sanitizer runtime's own nothrow new (whose
// blocks free() must not release) out of the program.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

// Out of line, so GCC never sees operator new's pointer reach free() once
// both are inlined into one caller (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace tr::sim {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using netlist::NetId;
using netlist::Netlist;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

/// Field-by-field equality of the semantic (seed-determined) SimResult
/// content; the wall-clock diagnostics are deliberately not compared.
void expect_results_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.power, b.power);
  EXPECT_EQ(a.output_node_energy, b.output_node_energy);
  EXPECT_EQ(a.internal_node_energy, b.internal_node_energy);
  EXPECT_EQ(a.pi_energy, b.pi_energy);
  EXPECT_EQ(a.per_gate_energy, b.per_gate_energy);
  EXPECT_EQ(a.per_gate_output_energy, b.per_gate_output_energy);
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    EXPECT_EQ(a.nets[n].prob, b.nets[n].prob) << "net " << n;
    EXPECT_EQ(a.nets[n].density, b.nets[n].density) << "net " << n;
  }
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.measured_time, b.measured_time);
}

/// SimEngine vs the reference oracle on one engine configuration, across
/// several replicate seeds.
void differential_check(const Netlist& nl,
                        const std::map<NetId, SignalStats>& stats,
                        const SimOptions& opt,
                        const std::vector<std::uint64_t>& seeds) {
  const Tech tech;
  const SimEngine engine(nl, stats, tech, opt);
  const oracle::ReferenceSim reference(nl, stats, tech, opt);
  ReplicationScratch scratch;
  for (std::uint64_t seed : seeds) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_results_identical(engine.run(seed, scratch), reference.run(seed));
  }
}

TEST(SimDifferential, RippleCarryBothDelayModels) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 4);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.4, 2e5};
  SimOptions opt;
  opt.measure_time = 6e-4;
  opt.warmup_time = 1e-5;
  for (bool delays : {true, false}) {
    SCOPED_TRACE(testing::Message() << "delays=" << delays);
    opt.delay_model = delays ? DelayModel::elmore : DelayModel::zero;
    differential_check(nl, stats, opt, {1, 2, 42, 987654321});
  }
}

SimOptions unit_delay_options(double delay) {
  SimOptions opt;
  opt.measure_time = 4e-4;
  opt.warmup_time = 1e-5;
  opt.delay_model = DelayModel::unit;
  opt.unit_delay = delay;
  return opt;
}

TEST(SimDifferential, RippleCarryUnitDelay) {
  // Uniform per-arc delay: glitches retained, every commit a fixed hop.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 4);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.4, 2e5};
  differential_check(nl, stats, unit_delay_options(1e-9),
                     {1, 2, 42, 987654321});
}

TEST(SimDifferential, UnitDelayComparableToToggleGaps) {
  // A unit delay comparable to the PI toggle gaps: input changes land
  // while commits are still pending, so the inertial re-targeting path
  // runs constantly.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 4);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 3e5};
  SimOptions opt = unit_delay_options(1e-7);
  opt.measure_time = 3e-4;
  differential_check(nl, stats, opt, {99, 100});
}

TEST(SimDifferential, SuiteCircuitUnitDelay) {
  const auto& spec = benchgen::suite_entry("cm85a");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed ^ 0x5EEDULL);
  SimOptions opt = unit_delay_options(1e-10);
  opt.measure_time = 2e-4;
  differential_check(nl, stats, opt, {7, 1234});
}

TEST(SimDifferential, RandomSpTreeUnitDelay) {
  Rng rng(20260729);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 8);
    std::map<NetId, SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.2, 0.8), rng.uniform(1e5, 4e5)};
    }
    SimOptions opt = unit_delay_options(5e-10);
    opt.measure_time = 3e-4;
    differential_check(nl, stats, opt,
                       {21 + static_cast<std::uint64_t>(trial)});
  }
}

TEST(SimDifferential, SuiteCircuitScenarioStats) {
  const auto& spec = benchgen::suite_entry("cm85a");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed ^ 0x5EEDULL);
  SimOptions opt;
  opt.measure_time = 2e-4;
  differential_check(nl, stats, opt, {7, 1234});
}

TEST(SimDifferential, RandomSpTreeNetlists) {
  // Random series-parallel cells: deep stacks, many internal nodes,
  // mixed arities — the gate-level state machinery under stress.
  Rng rng(20260728);
  const Tech tech;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 8);
    std::map<NetId, SignalStats> stats;
    for (NetId id : nl.primary_inputs()) {
      stats[id] = {rng.uniform(0.2, 0.8), rng.uniform(1e5, 4e5)};
    }
    SimOptions opt;
    opt.measure_time = 3e-4;
    opt.warmup_time = 1e-5;
    opt.delay_model = trial % 2 == 0 ? DelayModel::elmore : DelayModel::zero;
    differential_check(nl, stats, opt, {11 + static_cast<std::uint64_t>(trial)});
  }
}

TEST(SimDifferential, EveryLibraryCellInEveryConfiguration) {
  // One gate per (cell, catalog configuration), all reading the same
  // toggling inputs: every node mask table the standard library can
  // produce, the widest cells' included, against the oracle.
  std::size_t width = 0;
  for (const std::string& name : lib().cell_names()) {
    width = std::max(width,
                     static_cast<std::size_t>(lib().cell(name).input_count()));
  }
  Netlist nl(lib(), "every_config");
  std::vector<NetId> pis;
  std::map<NetId, SignalStats> stats;
  for (std::size_t i = 0; i < width; ++i) {
    pis.push_back(nl.add_net(numbered("x", i)));
    nl.mark_primary_input(pis.back());
    stats[pis.back()] = {0.5, 3e5};
  }
  int most_nodes = 0;
  for (const std::string& name : lib().cell_names()) {
    const celllib::Cell& cell = lib().cell(name);
    const std::vector<NetId> inputs(pis.begin(),
                                    pis.begin() + cell.input_count());
    for (const celllib::CatalogConfig& config :
         lib().catalog(cell.topology())->configs()) {
      const std::string gate = numbered("g", nl.gate_count());
      const NetId y = nl.add_net(gate + "_y");
      nl.set_config(nl.add_gate(gate, name, inputs, y), config.topology);
      nl.mark_primary_output(y);
      most_nodes = std::max(most_nodes, config.topology.internal_node_count());
    }
  }
  EXPECT_EQ(width, 6u);
  EXPECT_EQ(most_nodes, 5);  // the six-high stacks of the 6-input cells
  SimOptions zero;
  zero.delay_model = DelayModel::zero;
  for (SimOptions opt : {SimOptions{}, unit_delay_options(1e-9), zero}) {
    SCOPED_TRACE(testing::Message()
                 << "delay model " << static_cast<int>(opt.delay_model));
    opt.measure_time = 2e-4;
    opt.warmup_time = 1e-5;
    differential_check(nl, stats, opt, {1, 2});
  }
}

TEST(SimDifferential, TruncationIsBitIdentical) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 2e5};
  SimOptions opt;
  opt.measure_time = 6e-4;
  const Tech tech;
  const oracle::ReferenceSim probe(nl, stats, tech, opt);
  const std::uint64_t full_events = probe.run(5).event_count;
  ASSERT_GT(full_events, 50u);
  for (std::uint64_t budget : {full_events / 2, std::uint64_t{1}}) {
    SCOPED_TRACE(testing::Message() << "max_events " << budget);
    opt.max_events = budget;
    differential_check(nl, stats, opt, {5, 6});
  }
}

TEST(SimDifferential, MixedBudgetTruncationMatchesOracle) {
  // A budget between the replicates' natural event counts truncates some
  // seeds and not others; each must match its own oracle exactly,
  // including the truncated flag, under every delay model.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 2e5};
  const Tech tech;
  SimOptions zero;
  zero.delay_model = DelayModel::zero;
  for (SimOptions opt : {SimOptions{}, zero, unit_delay_options(1e-9)}) {
    SCOPED_TRACE(testing::Message()
                 << "delay model " << static_cast<int>(opt.delay_model));
    opt.measure_time = 4e-4;
    std::vector<std::uint64_t> seeds;
    std::vector<std::uint64_t> events;
    const oracle::ReferenceSim probe(nl, stats, tech, opt);
    for (std::uint64_t k = 0; k < 16; ++k) {
      seeds.push_back(Rng::derive_stream(5, k));
      events.push_back(probe.run(seeds.back()).event_count);
    }
    const auto [lo, hi] = std::minmax_element(events.begin(), events.end());
    ASSERT_LT(*lo, *hi);
    opt.max_events = (*lo + *hi) / 2;
    differential_check(nl, stats, opt, seeds);
  }
}

TEST(SimDifferential, FrozenAndMixedInputProcesses) {
  // Frozen inputs exercise the empty-queue path and the scheduler's
  // degenerate-grid fallback; the mixed case leaves some processes
  // frozen with others toggling.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const std::vector<NetId> pis = nl.primary_inputs();
  std::map<NetId, SignalStats> frozen;
  for (NetId id : pis) frozen[id] = {1.0, 0.0};
  SimOptions opt;
  opt.measure_time = 2e-4;
  differential_check(nl, frozen, opt, {3});

  std::map<NetId, SignalStats> mixed = frozen;
  mixed[pis.front()] = {0.5, 3e5};
  differential_check(nl, mixed, opt, {3, 4});
}

TEST(SimDifferential, MonteCarloSummariesMatchPreRewriteAccumulation) {
  // The MC layer folds engine results; replaying the fold over
  // reference results must give the identical summary (scratch reuse and
  // the scheduler drop out of the estimates entirely).
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc;
  mc.sim.seed = 77;
  mc.sim.measure_time = 3e-4;
  mc.sim.warmup_time = 1e-5;
  mc.replications = 8;
  mc.threads = 2;
  const SimEngine engine(nl, stats, tech, mc.sim);
  const SimSummary summary = monte_carlo(engine, mc);
  ASSERT_EQ(summary.replications, 8u);
  const oracle::ReferenceSim reference(nl, stats, tech, mc.sim);
  for (std::size_t k = 0; k < 8; ++k) {
    const SimResult oracle =
        reference.run(Rng::derive_stream(mc.sim.seed, k));
    EXPECT_EQ(summary.replicate_energy[k], oracle.energy) << "replicate " << k;
  }
  EXPECT_GT(summary.events_per_sec, 0.0);
  EXPECT_GT(summary.scratch_high_water_bytes, 0u);
}

TEST(SimDifferential, ScaledCircuitSteadyStateDoesNotAllocate) {
  // Slow-tier stress (ISSUE 5): on a scaled-suite circuit, replications
  // reusing one scratch + one result must reach an allocation-free
  // steady state — the arena high-water stabilises and the global
  // operator-new counter stays at zero across later replications.
  const auto& spec = benchgen::suite_entry("syn1000");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed);
  const Tech tech;
  SimOptions opt;
  // A short window keeps the test fast; the state arenas (the thing the
  // contract is about) are sized by the circuit, not the window.
  opt.measure_time = 2e-5;
  opt.warmup_time = 2e-6;
  const SimEngine engine(nl, stats, tech, opt);

  ReplicationScratch scratch;
  SimResult result;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    engine.run(seed, scratch, result);  // warmup: arenas grow to size
  }
  const std::size_t warm_bytes = scratch.high_water_bytes();
  EXPECT_GT(warm_bytes, 0u);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::uint64_t seed = 5; seed <= 16; ++seed) {
    engine.run(seed, scratch, result);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "steady-state replications allocated";
  EXPECT_EQ(scratch.high_water_bytes(), warm_bytes);
  EXPECT_EQ(result.scratch_bytes, warm_bytes);
  EXPECT_FALSE(result.truncated);
}

TEST(SimDifferential, ScaledCircuitFastPathMatchesOracle) {
  // One scaled-tier differential point (slow tier): the whole reason the
  // engine is trusted on the syn tier.
  const auto& spec = benchgen::suite_entry("syn1000");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = opt::scenario_a(nl, spec.seed);
  SimOptions opt;
  opt.measure_time = 2e-5;
  opt.warmup_time = 2e-6;
  differential_check(nl, stats, opt, {2026});
}

}  // namespace
}  // namespace tr::sim
