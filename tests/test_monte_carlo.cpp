// Tests for the replicated Monte-Carlo simulation engine: thread-count
// invariance (bit-identical summaries), replicate-seed independence,
// confidence-interval behaviour, the early-stop mode and truncation
// accounting (DESIGN.md Sec. 8.2).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "opt/scenario.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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

MonteCarloOptions small_options(std::uint64_t seed, int replications) {
  MonteCarloOptions mc;
  mc.sim.seed = seed;
  mc.sim.measure_time = 4e-4;
  mc.sim.warmup_time = 1e-5;
  mc.replications = replications;
  return mc;
}

void expect_estimates_identical(const Estimate& a, const Estimate& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.sem, b.sem);
  EXPECT_EQ(a.ci95, b.ci95);
  EXPECT_EQ(a.count, b.count);
}

void expect_summaries_identical(const SimSummary& a, const SimSummary& b) {
  expect_estimates_identical(a.energy, b.energy);
  expect_estimates_identical(a.power, b.power);
  expect_estimates_identical(a.output_node_energy, b.output_node_energy);
  expect_estimates_identical(a.internal_node_energy, b.internal_node_energy);
  expect_estimates_identical(a.pi_energy, b.pi_energy);
  expect_estimates_identical(a.gate_energy, b.gate_energy);
  ASSERT_EQ(a.per_gate_energy.size(), b.per_gate_energy.size());
  for (std::size_t g = 0; g < a.per_gate_energy.size(); ++g) {
    expect_estimates_identical(a.per_gate_energy[g], b.per_gate_energy[g]);
  }
  ASSERT_EQ(a.nets.size(), b.nets.size());
  for (std::size_t n = 0; n < a.nets.size(); ++n) {
    expect_estimates_identical(a.nets[n].prob, b.nets[n].prob);
    expect_estimates_identical(a.nets[n].density, b.nets[n].density);
  }
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.truncated_replications, b.truncated_replications);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.replicate_energy, b.replicate_energy);
}

TEST(MonteCarlo, SummaryBitIdenticalAcrossThreadCounts) {
  // The acceptance criterion: the summary is a pure function of the
  // options, never of the worker count or scheduling.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(41, 12);
  const SimEngine engine(nl, stats, tech, mc.sim);

  mc.threads = 1;
  const SimSummary serial = monte_carlo(engine, mc);
  for (int threads : {2, 4, 7}) {
    mc.threads = threads;
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_summaries_identical(serial, monte_carlo(engine, mc));
  }
}

TEST(MonteCarlo, ReplicateStreamsAreIndependent) {
  // Every replicate must see its own input waveforms: with a continuous
  // event-time distribution, two identical energies would mean two
  // identical streams.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  const SimSummary summary =
      monte_carlo(nl, stats, tech, small_options(7, 24));
  ASSERT_EQ(summary.replicate_energy.size(), 24u);
  const std::set<double> distinct(summary.replicate_energy.begin(),
                                  summary.replicate_energy.end());
  EXPECT_EQ(distinct.size(), summary.replicate_energy.size());
  for (double e : summary.replicate_energy) EXPECT_GT(e, 0.0);
}

TEST(MonteCarlo, DeriveStreamDecorrelatesSeedsAndStreams) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {1ULL, 2ULL, 999ULL}) {
    for (std::uint64_t k = 0; k < 64; ++k) {
      seen.insert(Rng::derive_stream(seed, k));
    }
    // Stream 0 must not collapse onto the master seed itself.
    EXPECT_NE(Rng::derive_stream(seed, 0), seed);
  }
  EXPECT_EQ(seen.size(), 3u * 64u);
}

TEST(MonteCarlo, MeanMatchesReplicateSample) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  const SimSummary summary =
      monte_carlo(nl, stats, tech, small_options(11, 16));
  double sum = 0.0;
  for (double e : summary.replicate_energy) sum += e;
  EXPECT_NEAR(summary.energy.mean / (sum / 16.0), 1.0, 1e-12);
  EXPECT_GT(summary.energy.ci95, 0.0);
  EXPECT_GE(summary.energy.ci95, summary.energy.sem);  // t >= 1.96 > 1
  EXPECT_EQ(summary.replications, 16u);
  EXPECT_EQ(summary.truncated_replications, 0u);
}

TEST(MonteCarlo, UncertaintyShrinksWithMoreReplications) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  const SimSummary few = monte_carlo(nl, stats, tech, small_options(3, 8));
  const SimSummary many = monte_carlo(nl, stats, tech, small_options(3, 64));
  EXPECT_LT(many.energy.sem, few.energy.sem);
  EXPECT_LT(many.energy.ci95, few.energy.ci95);
  // The two estimates agree within their joint uncertainty.
  EXPECT_NEAR(many.energy.mean, few.energy.mean,
              few.energy.ci95 + many.energy.ci95);
}

TEST(MonteCarlo, TruncatedReplicationsAreCounted) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(29, 6);
  mc.sim.max_events = 50;  // far below the ~hundreds of toggles per window
  const SimSummary summary = monte_carlo(nl, stats, tech, mc);
  EXPECT_EQ(summary.truncated_replications, 6u);
}

TEST(MonteCarlo, UnitDelaySummaryBitIdenticalAcrossThreadCounts) {
  // The thread-count contract holds under the glitch-retaining uniform
  // delay model too, not just the default Elmore one.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(52, 64);
  mc.sim.delay_model = DelayModel::unit;
  mc.sim.unit_delay = 1e-9;
  const SimEngine engine(nl, stats, tech, mc.sim);

  mc.threads = 1;
  const SimSummary serial = monte_carlo(engine, mc);
  mc.threads = 3;
  expect_summaries_identical(serial, monte_carlo(engine, mc));
}

TEST(MonteCarlo, ReplicationBudgetShrinksTheInterval) {
  // 4 -> 256 replications must shrink the Student-t CI by roughly
  // sqrt(64); we assert a loose factor 3 on the pinned seed.
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(55, 4);
  mc.sim.delay_model = DelayModel::zero;
  const SimSummary few = monte_carlo(nl, stats, tech, mc);
  mc.replications = 256;
  const SimSummary many = monte_carlo(nl, stats, tech, mc);
  EXPECT_EQ(many.replications, 256u);
  EXPECT_LT(many.energy.ci95, few.energy.ci95 / 3.0);
  EXPECT_NEAR(many.energy.mean, few.energy.mean,
              few.energy.ci95 + many.energy.ci95);
}

TEST(MonteCarlo, TruncationStaysLoudPerReplicate) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(56, 64);
  mc.sim.delay_model = DelayModel::zero;

  // A budget under every replicate's event count truncates all of them.
  mc.sim.max_events = 50;
  EXPECT_EQ(monte_carlo(nl, stats, tech, mc).truncated_replications, 64u);

  // A budget between the replicates' natural counts truncates exactly
  // the replicates that exceed it — a single runaway replicate must be
  // visible without poisoning the others.
  mc.sim.max_events = 200'000'000;
  const SimEngine probe(nl, stats, tech, mc.sim);
  ReplicationScratch scratch;
  std::vector<std::uint64_t> counts;
  for (std::uint64_t k = 0; k < 64; ++k) {
    counts.push_back(
        probe.run(Rng::derive_stream(mc.sim.seed, k), scratch).event_count);
  }
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  ASSERT_LT(*lo, *hi);
  const std::uint64_t budget = (*lo + *hi) / 2;
  const auto above = static_cast<std::size_t>(std::count_if(
      counts.begin(), counts.end(), [&](std::uint64_t c) { return c > budget; }));
  ASSERT_GT(above, 0u);
  ASSERT_LT(above, 64u);
  mc.sim.max_events = budget;
  const SimSummary mixed = monte_carlo(nl, stats, tech, mc);
  EXPECT_EQ(mixed.truncated_replications, above);
}

TEST(MonteCarlo, ValidatesOptions) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const auto stats = opt::scenario_b(nl, 2e6);
  const Tech tech;
  MonteCarloOptions mc = small_options(1, 0);
  EXPECT_THROW(monte_carlo(nl, stats, tech, mc), Error);
}

}  // namespace
}  // namespace tr::sim
