// Randomised parity suite: optimize() — the pool-built scoring tables and
// the table-driven greedy walk, with or without a delay budget — must
// return bit-identical OptimizeReport power numbers and choose the same
// configurations as the test oracle's sequential reference engine
// (per-candidate graph rebuild + path DFS, tests/oracle/), across random
// SP trees, both input scenarios, every ModelKind, both objectives,
// delay budgets and gate-level thread counts.
// "Bit-identical" is literal: doubles are compared with ==, not
// tolerances — both sides funnel through power::evaluate_node_tables on
// identical tables and weights, so any divergence is a bug, not
// rounding.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "benchgen/generators.hpp"
#include "benchgen/suite.hpp"
#include "celllib/catalog.hpp"
#include "celllib/library.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "oracle/reference_oracle.hpp"
#include "random_sp_tree.hpp"
#include "util/rng.hpp"

namespace tr::opt {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using gategraph::GateTopology;
using gategraph::SpNode;
using netlist::NetId;
using netlist::Netlist;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

/// Runs optimize() and the oracle on copies of `original` and asserts
/// the reports and resulting netlists are identical.
void expect_engine_parity(const Netlist& original,
                          const std::map<NetId, SignalStats>& stats,
                          OptimizeOptions options) {
  const Tech tech;
  Netlist fast_netlist = original;
  Netlist reference_netlist = original;

  const OptimizeReport fast = optimize(fast_netlist, stats, tech, options);
  const OptimizeReport reference =
      oracle::optimize_reference(reference_netlist, stats, tech, options);

  EXPECT_EQ(fast.model_power_before, reference.model_power_before);
  EXPECT_EQ(fast.model_power_after, reference.model_power_after);
  EXPECT_EQ(fast.gates_changed, reference.gates_changed);
  EXPECT_EQ(fast.critical_path_before, reference.critical_path_before);
  EXPECT_EQ(fast.critical_path_after, reference.critical_path_after);
  EXPECT_EQ(fast.configs_rejected_by_delay,
            reference.configs_rejected_by_delay);
  EXPECT_EQ(fast.configs_rejected_by_instance,
            reference.configs_rejected_by_instance);
  ASSERT_EQ(fast.decisions.size(), reference.decisions.size());
  for (std::size_t g = 0; g < fast.decisions.size(); ++g) {
    const GateDecision& a = fast.decisions[g];
    const GateDecision& b = reference.decisions[g];
    EXPECT_EQ(a.gate, b.gate);
    EXPECT_EQ(a.config_count, b.config_count);
    EXPECT_EQ(a.chosen_power, b.chosen_power) << "gate " << g;
    EXPECT_EQ(a.best_power, b.best_power) << "gate " << g;
    EXPECT_EQ(a.worst_power, b.worst_power) << "gate " << g;
    EXPECT_EQ(a.original_power, b.original_power) << "gate " << g;
    EXPECT_EQ(a.changed, b.changed) << "gate " << g;
  }
  for (int g = 0; g < original.gate_count(); ++g) {
    EXPECT_EQ(fast_netlist.gate(g).config.canonical_key(),
              reference_netlist.gate(g).config.canonical_key())
        << "gate " << g;
  }
}

/// The full option matrix of the parity contract.
void expect_parity_across_options(const Netlist& original,
                                  const std::map<NetId, SignalStats>& stats) {
  const std::optional<double> budgets[] = {std::nullopt, 0.0, 0.08};
  for (power::ModelKind model :
       {power::ModelKind::extended, power::ModelKind::output_only}) {
    for (Objective objective :
         {Objective::minimize_power, Objective::maximize_power}) {
      for (bool restrict_instance : {false, true}) {
        for (const std::optional<double>& budget : budgets) {
          for (int threads : {1, 2}) {
            SCOPED_TRACE(testing::Message()
                         << "model=" << static_cast<int>(model)
                         << " objective=" << static_cast<int>(objective)
                         << " restrict=" << restrict_instance << " budget="
                         << (budget ? std::to_string(*budget) : "none")
                         << " threads=" << threads);
            OptimizeOptions options;
            options.model = model;
            options.objective = objective;
            options.restrict_to_instance = restrict_instance;
            options.max_circuit_delay_increase = budget;
            options.threads = threads;
            expect_engine_parity(original, stats, options);
          }
        }
      }
    }
  }
}

TEST(OptParity, SuiteCircuitScenarioA) {
  const auto& spec = benchgen::suite_entry("b1");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  expect_parity_across_options(nl, scenario_a(nl, spec.seed));
}

TEST(OptParity, SuiteCircuitScenarioB) {
  const auto& spec = benchgen::suite_entry("b1");
  const Netlist nl = benchgen::build_benchmark(lib(), spec);
  expect_parity_across_options(nl, scenario_b(nl, 1e6));
}

TEST(OptParity, RippleCarryBothScenarios) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 6);
  expect_parity_across_options(nl, scenario_a(nl, 77));
  expect_parity_across_options(nl, scenario_b(nl, 2e6));
}

TEST(OptParity, SecondPassFromNonCanonicalConfigurations) {
  // After one optimization the gates sit in non-canonical configurations;
  // the catalogs for these start points differ (enumeration starts at the
  // current configuration) and parity must still hold.
  const auto& spec = benchgen::suite_entry("cm82a");
  Netlist nl = benchgen::build_benchmark(lib(), spec);
  const auto stats = scenario_a(nl, spec.seed);
  const Tech tech;
  optimize(nl, stats, tech);
  expect_parity_across_options(nl, stats);
}

TEST(OptParity, RandomSpTreeGates) {
  // Random SP topologies beyond the library: single-gate netlists are not
  // expressible (Netlist needs library cells), so parity is asserted at
  // the scorer level, which is exactly what optimize() consumes per gate.
  Rng rng(424242);
  const Tech tech;
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(4));
    std::vector<int> pool;
    for (int i = 0; i < n; ++i) pool.push_back(i);
    const GateTopology gate = GateTopology::from_pulldown(
        testutil::random_sp_tree(pool, rng, /*max_groups=*/3), n);
    if (gate.reordering_count_formula() > 64) continue;
    SCOPED_TRACE(gate.canonical_key());

    std::vector<SignalStats> inputs;
    for (int i = 0; i < n; ++i) {
      inputs.push_back({rng.next_double(), rng.uniform(0.0, 1e6)});
    }
    const double load = rng.uniform(1e-15, 50e-15);
    for (power::ModelKind model :
         {power::ModelKind::extended, power::ModelKind::output_only}) {
      const auto fast = score_configurations(gate, inputs, load, tech, model);
      const auto reference = oracle::score_configurations_reference(
          gate, inputs, load, tech, model);
      ASSERT_EQ(fast.size(), reference.size());
      for (std::size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].first.canonical_key(),
                  reference[i].first.canonical_key());
        EXPECT_EQ(fast[i].second, reference[i].second);  // bitwise
      }
    }
  }
}

TEST(OptParity, ScratchReuseDoesNotChangeResults) {
  // One ScoreScratch carried across cells and calls (the amortisation the
  // optimizer relies on) must not perturb any score.
  const Tech tech;
  ScoreScratch scratch;
  for (const char* name : {"nand3", "oai21", "aoi221"}) {
    const auto& cell = lib().cell(name);
    std::vector<SignalStats> inputs(
        static_cast<std::size_t>(cell.input_count()),
        SignalStats{0.37, 2.5e5});
    const std::vector<double> with_scratch =
        score_catalog(*lib().catalog(cell.topology()), inputs, 8e-15, tech,
                      power::ModelKind::extended, scratch);
    const auto fresh = score_configurations(cell.topology(), inputs, 8e-15,
                                            tech, power::ModelKind::extended);
    ASSERT_EQ(with_scratch.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(with_scratch[i], fresh[i].second);
    }
  }
}

}  // namespace
}  // namespace tr::opt
