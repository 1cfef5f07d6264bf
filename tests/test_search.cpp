// Tests for the table-driven greedy walk (opt/search.hpp, DESIGN.md
// Sec. 14):
//
//  * the delay tables' arrivals of the incoming netlist are FIELD-EXACT
//    against the graph-walk timer (tests/oracle/graph_walk.hpp) on
//    random SP netlists;
//  * greedy-seed parity — the table-driven greedy walk is bit-identical
//    to the test oracle's reference engine (tests/oracle/), budgets or
//    not;
//  * the delay-budget option — std::optional semantics (unset vs a
//    legitimate 0.0) and validation — and the threads recording.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "opt/optimizer.hpp"
#include "opt/search.hpp"
#include "oracle/graph_walk.hpp"
#include "oracle/reference_oracle.hpp"
#include "random_sp_tree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::opt {
namespace {

using celllib::CellLibrary;
using celllib::Tech;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using search::GreedySeed;
using search::IncrementalScorer;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

std::map<NetId, boolfn::SignalStats> uniform_stats(const Netlist& nl,
                                                   double p, double d) {
  std::map<NetId, boolfn::SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {p, d};
  return stats;
}

std::map<NetId, boolfn::SignalStats> random_stats(const Netlist& nl,
                                                  Rng& rng) {
  std::map<NetId, boolfn::SignalStats> stats;
  for (NetId id : nl.primary_inputs()) {
    stats[id] = {rng.uniform(0.05, 0.95), rng.uniform(1e3, 1e6)};
  }
  return stats;
}

TEST(IncrementalScorer, ConstructionMatchesCircuitDelayExactly) {
  const Tech tech;
  Rng rng(11);
  for (int round = 0; round < 4; ++round) {
    const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
    const Netlist nl = testutil::random_sp_netlist(sp_lib, rng, 14);
    const IncrementalScorer scorer(nl, random_stats(nl, rng), tech,
                                   power::ModelKind::extended);
    const std::vector<double> arrivals = search::arrivals(scorer);
    const delay::CircuitDelay timing = oracle::circuit_delay_walk(nl, tech);
    ASSERT_EQ(arrivals.size(), timing.net_arrival.size());
    for (std::size_t i = 0; i < timing.net_arrival.size(); ++i) {
      EXPECT_EQ(arrivals[i], timing.net_arrival[i]);
    }
  }
}

/// Runs greedy_seed over a fresh scorer and returns the chosen
/// configuration topologies keyed like the netlist.
GreedySeed table_greedy(const Netlist& nl,
                        const std::map<NetId, boolfn::SignalStats>& stats,
                        const Tech& tech, const OptimizeOptions& options,
                        std::vector<std::string>* keys) {
  const IncrementalScorer scorer(nl, stats, tech, options.model);
  const GreedySeed seed = greedy_seed(scorer, options);
  if (keys != nullptr) {
    keys->clear();
    for (GateId g = 0; g < nl.gate_count(); ++g) {
      keys->push_back(
          scorer.table(g)
              .catalog->configs()[static_cast<std::size_t>(
                  seed.configs[static_cast<std::size_t>(g)])]
              .topology.canonical_key());
    }
  }
  return seed;
}

TEST(GreedySeed, BitIdenticalToEngineDecisionsAcrossOptionSweep) {
  // The greedy walk runs off the precomputed tables; it is pinned
  // bit-exactly against the oracle's per-candidate graph-rebuild engine:
  // same chosen configuration per gate, same rejection counters, same
  // power totals.
  const Tech tech;
  Rng rng(83);
  std::vector<Netlist> circuits;
  circuits.push_back(benchgen::ripple_carry_adder(lib(), 6));
  const CellLibrary sp_lib = testutil::random_sp_library(rng, 4);
  circuits.push_back(testutil::random_sp_netlist(sp_lib, rng, 15));

  const std::optional<double> budgets[] = {std::nullopt, 0.0, 0.08};
  for (const Netlist& original : circuits) {
    const auto stats = random_stats(original, rng);
    for (const std::optional<double>& budget : budgets) {
      for (const Objective objective :
           {Objective::minimize_power, Objective::maximize_power}) {
        for (const power::ModelKind model :
             {power::ModelKind::extended, power::ModelKind::output_only}) {
          for (const bool restrict_instance : {false, true}) {
            OptimizeOptions options;
            options.objective = objective;
            options.model = model;
            options.max_circuit_delay_increase = budget;
            options.restrict_to_instance = restrict_instance;

            Netlist engine_nl = original;
            const OptimizeReport report =
                oracle::optimize_reference(engine_nl, stats, tech, options);

            std::vector<std::string> seed_keys;
            const GreedySeed seed =
                table_greedy(original, stats, tech, options, &seed_keys);

            EXPECT_EQ(seed.rejected_delay,
                      report.configs_rejected_by_delay);
            EXPECT_EQ(seed.rejected_instance,
                      report.configs_rejected_by_instance);
            double seed_power = 0.0;
            const IncrementalScorer scorer(original, stats, tech, model);
            for (GateId g : scorer.topo_order()) {
              seed_power +=
                  scorer.table(g).power[static_cast<std::size_t>(
                      seed.configs[static_cast<std::size_t>(g)])];
            }
            EXPECT_EQ(seed_power, report.model_power_after);
            for (GateId g = 0; g < original.gate_count(); ++g) {
              EXPECT_EQ(seed_keys[static_cast<std::size_t>(g)],
                        engine_nl.gate(g).config.canonical_key())
                  << "gate " << g;
            }
          }
        }
      }
    }
  }
}

TEST(DelayBudgetOption, UnsetAndZeroAreDistinctAndNegativeRejected) {
  // Unset must run the greedy walk with no arrival ceilings and so no
  // rejections; 0.0 is a legitimate zero-slack budget; invalid values
  // throw instead of silently toggling.
  const Tech tech;
  const auto run = [&](OptimizeOptions options) {
    Netlist nl = benchgen::ripple_carry_adder(lib(), 6);
    return optimize(nl, uniform_stats(nl, 0.5, 3e5), tech, options);
  };

  OptimizeOptions unset;
  EXPECT_FALSE(unset.max_circuit_delay_increase.has_value());
  const OptimizeReport unconstrained = run(unset);
  EXPECT_EQ(unconstrained.configs_rejected_by_delay, 0);

  OptimizeOptions zero;
  zero.max_circuit_delay_increase = 0.0;
  const OptimizeReport constrained = run(zero);
  // Both runs build their tables on pools of the same auto-sized width.
  EXPECT_EQ(constrained.threads_used, unconstrained.threads_used);
  // A zero-slack budget constrains for real on this circuit.
  EXPECT_GE(constrained.model_power_after, unconstrained.model_power_after);

  OptimizeOptions negative;
  negative.max_circuit_delay_increase = -1.0;
  EXPECT_THROW(run(negative), Error);
  OptimizeOptions infinite;
  infinite.max_circuit_delay_increase =
      std::numeric_limits<double>::infinity();
  EXPECT_THROW(run(infinite), Error);
}

TEST(ThreadRecording, ReportsThreadsActuallyUsed) {
  const Tech tech;
  const Netlist original = benchgen::ripple_carry_adder(lib(), 4);
  const auto stats = uniform_stats(original, 0.5, 3e5);

  OptimizeOptions two;
  two.threads = 2;
  Netlist a = original;
  const OptimizeReport unbudgeted = optimize(a, stats, tech, two);
  EXPECT_EQ(unbudgeted.threads_used, 2);

  // A delay budget only adds ceilings to the walk; its tables are built
  // on the same pool, and the report says so.
  OptimizeOptions budgeted = two;
  budgeted.max_circuit_delay_increase = 0.0;
  Netlist b = original;
  EXPECT_EQ(optimize(b, stats, tech, budgeted).threads_used, 2);

  OptimizeOptions serial = budgeted;
  serial.threads = 1;
  Netlist c = original;
  EXPECT_EQ(optimize(c, stats, tech, serial).threads_used, 1);
}

}  // namespace
}  // namespace tr::opt
