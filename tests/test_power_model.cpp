// Tests for the extended power-consumption model (paper Sec. 3.3) and the
// circuit-level propagation (Sec. 4 / Fig. 3 support machinery).

#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "oracle/graph_walk.hpp"
#include "power/circuit_power.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::power {
namespace {

using boolfn::SignalStats;
using celllib::CellLibrary;
using celllib::Tech;
using gategraph::GateGraph;

std::vector<double> caps_for(const GateGraph& graph, const Tech& tech,
                             double load = 10e-15) {
  return celllib::node_capacitances(graph, tech, load);
}

TEST(GatePower, InverterClosedForm) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const GateGraph graph(lib.cell("inv").topology());
  const double load = 8e-15;
  const auto caps = caps_for(graph, tech, load);

  const double p = 0.3, d = 2.0e5;
  const GatePower gp = evaluate_gate_power(graph, caps, {{p, d}}, tech);

  // No internal nodes: only the output node.
  ASSERT_EQ(gp.nodes.size(), 1u);
  EXPECT_NEAR(gp.output.prob, 1.0 - p, 1e-12);
  // An inverter propagates every input transition.
  EXPECT_NEAR(gp.output.density, d, 1e-9);
  const double c_out = 2.0 * tech.c_diff + load;
  EXPECT_NEAR(gp.total_power, tech.energy_per_transition(c_out) * d, 1e-18);
}

TEST(GatePower, OutputNodeDensityEqualsNajmDensity) {
  // DESIGN.md Sec. 2 consistency property: at the output node, where
  // G = ~H, the extended model's T collapses to Najm's density exactly.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  Rng rng(77);
  for (const std::string& name : lib.cell_names()) {
    const auto& cell = lib.cell(name);
    const GateGraph graph(cell.topology());
    const auto caps = caps_for(graph, tech);
    std::vector<SignalStats> inputs;
    for (int j = 0; j < cell.input_count(); ++j) {
      inputs.push_back({rng.next_double(), rng.uniform(0.0, 1e6)});
    }
    const GatePower gp = evaluate_gate_power(graph, caps, inputs, tech);
    const double najm = boolfn::output_density(cell.function(), inputs);
    EXPECT_NEAR(gp.output.density, najm, 1e-6 * std::max(1.0, najm)) << name;
    EXPECT_NEAR(gp.output.prob,
                boolfn::output_probability(cell.function(), inputs), 1e-12)
        << name;
  }
}

TEST(GatePower, OutputStatsInvariantUnderReordering) {
  // The monotonicity precondition (paper Sec. 4.2): every reordering
  // yields the same output probability and density.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  Rng rng(78);
  for (const char* name : {"nand3", "aoi21", "oai221", "aoi222"}) {
    const auto& cell = lib.cell(name);
    std::vector<SignalStats> inputs;
    for (int j = 0; j < cell.input_count(); ++j) {
      inputs.push_back({rng.next_double(), rng.uniform(0.0, 1e6)});
    }
    double ref_prob = -1.0, ref_density = -1.0;
    for (const auto& config : cell.topology().all_reorderings()) {
      const GateGraph graph(config);
      const GatePower gp =
          evaluate_gate_power(graph, caps_for(graph, tech), inputs, tech);
      if (ref_prob < 0.0) {
        ref_prob = gp.output.prob;
        ref_density = gp.output.density;
      }
      EXPECT_NEAR(gp.output.prob, ref_prob, 1e-12) << name;
      EXPECT_NEAR(gp.output.density, ref_density, 1e-6) << name;
    }
  }
}

TEST(GatePower, ReorderingChangesInternalPower) {
  // The whole point of the paper: configurations differ in power.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const auto& cell = lib.cell("oai21");
  const std::vector<SignalStats> inputs{
      {0.5, 1e4}, {0.5, 1e5}, {0.5, 1e6}};
  std::vector<double> powers;
  for (const auto& config : cell.topology().all_reorderings()) {
    const GateGraph graph(config);
    powers.push_back(
        evaluate_gate_power(graph, caps_for(graph, tech), inputs, tech)
            .total_power);
  }
  ASSERT_EQ(powers.size(), 4u);
  const double lo = *std::min_element(powers.begin(), powers.end());
  const double hi = *std::max_element(powers.begin(), powers.end());
  EXPECT_GT(hi, lo * 1.02);  // at least a few percent spread
}

TEST(GatePower, HighActivityInputBelongsNearTheOutput) {
  // The placement rule the model reproduces (Hossain et al. [4], the
  // paper's reference for serial stacks): the highest-activity input
  // drives the transistor *nearest the output node*. An internal node
  // that sits below the hot device is gated by the colder inputs and
  // barely switches; put the hot device at the rail instead and the node
  // above it follows every toggle. For oai21 = !((a+b)c) with
  // D_c >> D_a, D_b the best configuration therefore has c's device next
  // to y, the worst has it at the vss rail.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const auto& cell = lib.cell("oai21");
  const std::vector<SignalStats> inputs{
      {0.5, 1e4}, {0.5, 1e5}, {0.5, 1e6}};  // pin c = highest activity

  double best_power = 1e30, worst_power = -1.0;
  gategraph::GateTopology best = cell.topology(), worst = cell.topology();
  for (const auto& config : cell.topology().all_reorderings()) {
    const GateGraph graph(config);
    const double p =
        evaluate_gate_power(graph, caps_for(graph, tech), inputs, tech)
            .total_power;
    if (p < best_power) {
      best_power = p;
      best = config;
    }
    if (p > worst_power) {
      worst_power = p;
      worst = config;
    }
  }
  // Pull-down series children are listed output-side first: the best
  // config has the c device (input 2) first, the worst has it last.
  ASSERT_EQ(best.nmos().kind, gategraph::SpNode::Kind::series);
  EXPECT_TRUE(best.nmos().children.front().is_leaf());
  EXPECT_EQ(best.nmos().children.front().input, 2);
  EXPECT_TRUE(worst.nmos().children.back().is_leaf());
  EXPECT_EQ(worst.nmos().children.back().input, 2);
}

TEST(GatePower, Nand2HotInputPlacementClosedForm) {
  // nand2 with equal probabilities 0.5: the internal node sees
  //   T = D_top/3 + 2 D_bottom/3
  // (top = output side). Verify the closed form and hence the rule.
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const auto& cell = lib.cell("nand2");
  const double d_a = 9e5, d_b = 1e5;  // pin a hot
  const std::vector<SignalStats> inputs{{0.5, d_a}, {0.5, d_b}};
  const auto configs = cell.topology().all_reorderings();
  ASSERT_EQ(configs.size(), 2u);
  for (const auto& config : configs) {
    const GateGraph graph(config);
    const GatePower gp =
        evaluate_gate_power(graph, caps_for(graph, tech), inputs, tech);
    ASSERT_EQ(gp.nodes.size(), 2u);  // internal + output
    const bool a_on_top = config.nmos().children.front().input == 0;
    const double d_top = a_on_top ? d_a : d_b;
    const double d_bottom = a_on_top ? d_b : d_a;
    EXPECT_NEAR(gp.nodes[0].density, d_top / 3.0 + 2.0 * d_bottom / 3.0,
                1e-6 * (d_top + d_bottom));
  }
}

TEST(GatePower, FrozenInputsGiveZeroPower) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const GateGraph graph(lib.cell("nand3").topology());
  const std::vector<SignalStats> inputs{{1.0, 0.0}, {0.0, 0.0}, {0.5, 0.0}};
  const GatePower gp =
      evaluate_gate_power(graph, caps_for(graph, tech), inputs, tech);
  EXPECT_DOUBLE_EQ(gp.total_power, 0.0);
}

TEST(GatePower, OutputOnlyModelIsALowerBound) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  Rng rng(79);
  for (const char* name : {"nand2", "nor3", "aoi22", "oai211"}) {
    const auto& cell = lib.cell(name);
    const GateGraph graph(cell.topology());
    std::vector<SignalStats> inputs;
    for (int j = 0; j < cell.input_count(); ++j) {
      inputs.push_back({rng.next_double(), rng.uniform(1e3, 1e6)});
    }
    const auto caps = caps_for(graph, tech);
    const double full =
        evaluate_gate_power(graph, caps, inputs, tech).total_power;
    const double output_only =
        oracle::evaluate_output_only_power(graph, caps, inputs, tech)
            .total_power;
    EXPECT_LE(output_only, full) << name;
    EXPECT_GT(output_only, 0.0) << name;
  }
}

TEST(GatePower, ValidatesArity) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const GateGraph graph(lib.cell("nand2").topology());
  const auto caps = caps_for(graph, tech);
  EXPECT_THROW(evaluate_gate_power(graph, caps, {{0.5, 1.0}}, tech), Error);
  EXPECT_THROW(
      evaluate_gate_power(graph, {1e-15}, {{0.5, 1.0}, {0.5, 1.0}}, tech),
      Error);
}

TEST(CircuitPower, PropagationThroughInverterChain) {
  const CellLibrary lib = CellLibrary::standard();
  netlist::Netlist nl(lib, "chain");
  const auto a = nl.add_net("a");
  nl.mark_primary_input(a);
  const auto n1 = nl.add_net("n1");
  const auto n2 = nl.add_net("n2");
  nl.add_gate("i1", "inv", {a}, n1);
  nl.add_gate("i2", "inv", {n1}, n2);
  nl.mark_primary_output(n2);

  const auto activity = propagate_activity(nl, {{a, {0.2, 5e4}}});
  EXPECT_NEAR(activity.net_stats[static_cast<std::size_t>(n1)].prob, 0.8,
              1e-12);
  EXPECT_NEAR(activity.net_stats[static_cast<std::size_t>(n2)].prob, 0.2,
              1e-12);
  EXPECT_NEAR(activity.net_stats[static_cast<std::size_t>(n2)].density, 5e4,
              1e-6);
}

TEST(CircuitPower, TotalsAreSumsAndPiLoadCounted) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  netlist::Netlist nl = benchgen::ripple_carry_adder(lib, 4);
  std::map<netlist::NetId, SignalStats> pi_stats;
  for (auto id : nl.primary_inputs()) pi_stats[id] = {0.5, 1e5};

  const auto activity = propagate_activity(nl, pi_stats);
  const CircuitPower cp = circuit_power(nl, activity, tech);
  double sum = 0.0;
  for (double p : cp.per_gate) sum += p;
  EXPECT_NEAR(cp.gate_power, sum, 1e-15);
  EXPECT_GT(cp.pi_load_power, 0.0);
  EXPECT_NEAR(cp.total(), cp.gate_power + cp.pi_load_power, 1e-15);

  // Output-only model gives a strictly smaller gate total here.
  const CircuitPower co =
      circuit_power(nl, activity, tech, ModelKind::output_only);
  EXPECT_LT(co.gate_power, cp.gate_power);
}

TEST(CircuitPower, MissingPiStatsRejected) {
  const CellLibrary lib = CellLibrary::standard();
  netlist::Netlist nl = benchgen::ripple_carry_adder(lib, 2);
  EXPECT_THROW(propagate_activity(nl, {}), Error);
}

// Property sweep: for every library cell, the model total is monotone in
// each input's transition density (more activity can never reduce power).
class DensityMonotonicity : public ::testing::TestWithParam<const char*> {};

TEST_P(DensityMonotonicity, PowerIsMonotoneInInputDensity) {
  const CellLibrary lib = CellLibrary::standard();
  const Tech tech;
  const auto& cell = lib.cell(GetParam());
  const GateGraph graph(cell.topology());
  const auto caps = caps_for(graph, tech);
  std::vector<SignalStats> inputs(
      static_cast<std::size_t>(cell.input_count()), SignalStats{0.5, 1e5});
  const double base =
      evaluate_gate_power(graph, caps, inputs, tech).total_power;
  for (int j = 0; j < cell.input_count(); ++j) {
    auto bumped = inputs;
    bumped[static_cast<std::size_t>(j)].density *= 3.0;
    const double more =
        evaluate_gate_power(graph, caps, bumped, tech).total_power;
    EXPECT_GE(more, base - 1e-18) << "input " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCells, DensityMonotonicity,
                         ::testing::Values("inv", "nand2", "nand3", "nand4",
                                           "nor2", "nor3", "nor4", "aoi21",
                                           "aoi22", "aoi31", "aoi211",
                                           "aoi221", "aoi222", "oai21",
                                           "oai22", "oai31", "oai211",
                                           "oai221", "oai222"));

}  // namespace
}  // namespace tr::power
