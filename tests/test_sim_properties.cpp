// Property tests for simulator invariants on randomised circuits whose
// gates are themselves random series-parallel stacks
// (tests/random_sp_tree.hpp): energy accounting
// (output + internal + pi == total), engine purity/determinism,
// replicate-seed independence, and the surfaced max_events truncation
// (DESIGN.md Sec. 8.1/8.3).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "celllib/cell.hpp"
#include "celllib/library.hpp"
#include "random_sp_tree.hpp"
#include "sim/sim_engine.hpp"
#include "sim/switch_sim.hpp"
#include "util/rng.hpp"

namespace tr::sim {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using netlist::NetId;
using netlist::Netlist;
using testutil::random_sp_library;
using testutil::random_sp_netlist;

std::map<NetId, SignalStats> random_pi_stats(const Netlist& nl, Rng& rng) {
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) {
    stats[id] = {rng.uniform(0.2, 0.8), rng.uniform(1e5, 4e5)};
  }
  return stats;
}

TEST(SimProperties, EnergyAccountingIdentityOnRandomSpCircuits) {
  Rng rng(20260728);
  const Tech tech;
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const CellLibrary lib = random_sp_library(rng, 4);
    const Netlist nl = random_sp_netlist(lib, rng, 6);
    const auto stats = random_pi_stats(nl, rng);
    for (bool delays : {true, false}) {
      SimOptions opt;
      opt.seed = 1000 + static_cast<std::uint64_t>(trial);
      opt.measure_time = 4e-4;
      opt.warmup_time = 1e-5;
      opt.delay_model = delays ? DelayModel::elmore : DelayModel::zero;
      const SimResult r = simulate(nl, stats, tech, opt);
      ASSERT_FALSE(r.truncated);
      ASSERT_GT(r.energy, 0.0);
      EXPECT_NEAR((r.output_node_energy + r.internal_node_energy +
                   r.pi_energy) /
                      r.energy,
                  1.0, 1e-9)
          << "delays=" << delays;
      double per_gate_sum = 0.0;
      for (double e : r.per_gate_energy) per_gate_sum += e;
      EXPECT_NEAR(per_gate_sum / (r.output_node_energy + r.internal_node_energy),
                  1.0, 1e-9)
          << "delays=" << delays;
      EXPECT_NEAR(r.power * r.measured_time, r.energy, r.energy * 1e-12);
      EXPECT_DOUBLE_EQ(r.measured_time, opt.measure_time);
    }
  }
}

TEST(SimProperties, EnergyAccountingIdentityUnderUnitDelay) {
  // Same partition identities under the uniform-delay model, plus the
  // per-gate output share never exceeding its gate total.
  Rng rng(20260730);
  const Tech tech;
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const CellLibrary lib = random_sp_library(rng, 4);
    const Netlist nl = random_sp_netlist(lib, rng, 6);
    const auto stats = random_pi_stats(nl, rng);
    SimOptions opt;
    opt.seed = 2000 + static_cast<std::uint64_t>(trial);
    opt.measure_time = 4e-4;
    opt.warmup_time = 1e-5;
    opt.delay_model = DelayModel::unit;
    opt.unit_delay = 1e-9;
    const SimResult r = simulate(nl, stats, tech, opt);
    ASSERT_FALSE(r.truncated);
    ASSERT_GT(r.energy, 0.0);
    EXPECT_NEAR((r.output_node_energy + r.internal_node_energy + r.pi_energy) /
                    r.energy,
                1.0, 1e-9);
    double gate_sum = 0.0, output_sum = 0.0;
    for (std::size_t g = 0; g < r.per_gate_energy.size(); ++g) {
      EXPECT_LE(r.per_gate_output_energy[g], r.per_gate_energy[g] + 1e-18);
      gate_sum += r.per_gate_energy[g];
      output_sum += r.per_gate_output_energy[g];
    }
    EXPECT_NEAR(gate_sum / (r.output_node_energy + r.internal_node_energy),
                1.0, 1e-9);
    if (r.output_node_energy > 0.0) {
      EXPECT_NEAR(output_sum / r.output_node_energy, 1.0, 1e-9);
    }
    EXPECT_NEAR(r.power * r.measured_time, r.energy, r.energy * 1e-12);
  }
}

TEST(SimProperties, EngineRunsArePureFunctionsOfTheSeed) {
  Rng rng(77);
  const Tech tech;
  const CellLibrary lib = random_sp_library(rng, 3);
  const Netlist nl = random_sp_netlist(lib, rng, 5);
  const auto stats = random_pi_stats(nl, rng);
  SimOptions opt;
  opt.measure_time = 4e-4;
  const SimEngine engine(nl, stats, tech, opt);

  // Same seed twice from one engine: the first run must not leave any
  // state behind that could bias the second.
  const SimResult a = engine.run(42);
  const SimResult b = engine.run(42);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.per_gate_energy, b.per_gate_energy);

  // And the engine path equals the one-shot simulate() path.
  SimOptions seeded = opt;
  seeded.seed = 42;
  const SimResult c = simulate(nl, stats, tech, seeded);
  EXPECT_EQ(a.energy, c.energy);
  EXPECT_EQ(a.event_count, c.event_count);

  // Distinct derived streams see distinct waveforms.
  const SimResult d = engine.run(Rng::derive_stream(42, 0));
  const SimResult e = engine.run(Rng::derive_stream(42, 1));
  EXPECT_NE(d.energy, e.energy);
}

TEST(SimProperties, TruncationIsSurfacedNotSilent) {
  Rng rng(99);
  const Tech tech;
  const CellLibrary lib = random_sp_library(rng, 3);
  const Netlist nl = random_sp_netlist(lib, rng, 5);
  const auto stats = random_pi_stats(nl, rng);

  SimOptions opt;
  opt.seed = 5;
  opt.measure_time = 4e-4;
  opt.warmup_time = 1e-5;
  const SimResult full = simulate(nl, stats, tech, opt);
  ASSERT_FALSE(full.truncated);
  EXPECT_DOUBLE_EQ(full.measured_time, opt.measure_time);
  ASSERT_GT(full.event_count, 100u);

  // A budget below the full event count must be reported as a partial
  // window, with every statistic normalised over the window actually
  // simulated.
  opt.max_events = full.event_count / 2;
  const SimResult partial = simulate(nl, stats, tech, opt);
  EXPECT_TRUE(partial.truncated);
  EXPECT_LE(partial.event_count, opt.max_events);
  EXPECT_LT(partial.measured_time, opt.measure_time);
  EXPECT_LT(partial.energy, full.energy);
  if (partial.measured_time > 0.0) {
    EXPECT_NEAR(partial.power * partial.measured_time, partial.energy,
                partial.energy * 1e-12);
  }

  // Degenerate budget: truncation before the warmup ends yields an empty
  // window, not garbage.
  opt.max_events = 1;
  const SimResult empty = simulate(nl, stats, tech, opt);
  EXPECT_TRUE(empty.truncated);
  EXPECT_EQ(empty.measured_time, 0.0);
  EXPECT_EQ(empty.power, 0.0);
}

TEST(SimProperties, FrozenCircuitProducesNoEvents) {
  // All-frozen inputs: no toggles, no energy, no truncation — the
  // engine's empty-queue path.
  Rng rng(123);
  const Tech tech;
  const CellLibrary lib = random_sp_library(rng, 2);
  const Netlist nl = random_sp_netlist(lib, rng, 3);
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {1.0, 0.0};
  SimOptions opt;
  opt.measure_time = 1e-4;
  const SimResult r = simulate(nl, stats, tech, opt);
  EXPECT_EQ(r.event_count, 0u);
  EXPECT_EQ(r.energy, 0.0);
  EXPECT_FALSE(r.truncated);
  EXPECT_DOUBLE_EQ(r.measured_time, opt.measure_time);
}

}  // namespace
}  // namespace tr::sim
