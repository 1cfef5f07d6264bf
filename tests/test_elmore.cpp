// Tests for the Elmore RC delay model: closed forms for simple gates,
// the speed rule of thumb (critical input near the output is faster) and
// circuit-level static timing.

#include <gtest/gtest.h>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace tr::delay {
namespace {

using celllib::CellLibrary;
using celllib::Tech;
using gategraph::GateGraph;

constexpr double k_factor = 0.69;

CellLibrary& lib() {
  static CellLibrary instance = CellLibrary::standard();
  return instance;
}

TEST(Elmore, InverterClosedForm) {
  const Tech tech;
  const GateGraph graph(lib().cell("inv").topology());
  const double load = 10e-15;
  const auto caps = celllib::node_capacitances(graph, tech, load);
  const GateDelays d = gate_delays(graph, caps, tech);
  ASSERT_EQ(d.pin_delay.size(), 1u);
  // Pull-down: tau = R_n * C_y; pull-up: R_p * C_y; worst = pull-up.
  const double c_y = caps[GateGraph::output_node];
  EXPECT_NEAR(d.pin_delay[0], k_factor * tech.r_p * c_y, 1e-15);
  EXPECT_DOUBLE_EQ(d.worst, d.pin_delay[0]);
}

TEST(Elmore, Nand2PinAsymmetry) {
  // nand2 pull-down stack: y - [a] - n - [b] - vss.
  // Pin a (next to output): discharges only C_y through R_a + R_b.
  // Pin b (next to rail): discharges C_y through both devices plus C_n
  // through R_b: strictly slower.
  const Tech tech;
  const GateGraph graph(lib().cell("nand2").topology());
  const auto caps = celllib::node_capacitances(graph, tech, 10e-15);
  const GateDelays d = gate_delays(graph, caps, tech);
  ASSERT_EQ(d.pin_delay.size(), 2u);

  const double c_y = caps[GateGraph::output_node];
  const double c_n = caps[3];
  // Pull-down through both N devices:
  const double tau_a = c_y * 2.0 * tech.r_n;
  const double tau_b = c_y * 2.0 * tech.r_n + c_n * tech.r_n;
  // Pull-up is parallel single P devices: tau_up = R_p * C_y.
  const double tau_up = tech.r_p * c_y;
  EXPECT_NEAR(d.pin_delay[0], k_factor * std::max(tau_a, tau_up), 1e-15);
  EXPECT_NEAR(d.pin_delay[1], k_factor * std::max(tau_b, tau_up), 1e-15);
  EXPECT_GT(d.pin_delay[1], d.pin_delay[0]);
}

TEST(Elmore, SpeedRuleOfThumb) {
  // Paper Sec. 5: "the critical transistor should always be placed near
  // the output terminal to obtain a fast gate". Reordering a nand3 so a
  // given input moves from the rail to the output side must reduce that
  // pin's delay.
  const Tech tech;
  const auto& cell = lib().cell("nand3");
  double best_pin0 = 1e9, worst_pin0 = -1.0;
  for (const auto& config : cell.topology().all_reorderings()) {
    const GateGraph graph(config);
    const auto caps = celllib::node_capacitances(graph, tech, 10e-15);
    const double d0 = gate_delays(graph, caps, tech).pin_delay[0];
    best_pin0 = std::min(best_pin0, d0);
    worst_pin0 = std::max(worst_pin0, d0);
  }
  EXPECT_GT(worst_pin0, best_pin0 * 1.05);
}

TEST(Elmore, LoadIncreasesDelay) {
  const Tech tech;
  const GateGraph graph(lib().cell("nor2").topology());
  const auto caps_small = celllib::node_capacitances(graph, tech, 5e-15);
  const auto caps_large = celllib::node_capacitances(graph, tech, 50e-15);
  EXPECT_GT(gate_delays(graph, caps_large, tech).worst,
            gate_delays(graph, caps_small, tech).worst);
}

TEST(Elmore, DelayValidatesArity) {
  const Tech tech;
  const GateGraph graph(lib().cell("inv").topology());
  EXPECT_THROW(gate_delays(graph, {1e-15}, tech), Error);
}

TEST(CircuitDelay, ChainAccumulates) {
  const Tech tech;
  netlist::Netlist nl(lib(), "chain");
  auto prev = nl.add_net("a");
  nl.mark_primary_input(prev);
  for (int i = 0; i < 5; ++i) {
    const auto next = nl.add_net(numbered("n", i));
    nl.add_gate(numbered("u", i), "inv", {prev}, next);
    prev = next;
  }
  nl.mark_primary_output(prev);
  const CircuitDelay cd = circuit_delay(nl, tech);
  EXPECT_GT(cd.critical_path, 0.0);
  // Arrival times must be strictly increasing along the chain.
  double last = -1.0;
  for (int i = 0; i < 5; ++i) {
    const double arr =
        cd.net_arrival[static_cast<std::size_t>(nl.find_net(
            numbered("n", i)))];
    EXPECT_GT(arr, last);
    last = arr;
  }
  EXPECT_DOUBLE_EQ(cd.critical_path, last);
}

TEST(CircuitDelay, AdderCriticalPathGrowsWithWidth) {
  const Tech tech;
  const auto rca4 = benchgen::ripple_carry_adder(lib(), 4);
  const auto rca8 = benchgen::ripple_carry_adder(lib(), 8);
  const double d4 = circuit_delay(rca4, tech).critical_path;
  const double d8 = circuit_delay(rca8, tech).critical_path;
  EXPECT_GT(d8, d4 * 1.5);  // carry chain roughly doubles
}

TEST(CircuitDelay, ReorderingAffectsCircuitDelay) {
  // Scrambling configurations changes the critical path (that is what
  // Table 3's D column measures).
  const Tech tech;
  auto nl = benchgen::ripple_carry_adder(lib(), 4);
  const double before = circuit_delay(nl, tech).critical_path;
  // Flip every gate to its "last" enumerated configuration.
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    const auto configs = nl.gate(g).config.all_reorderings();
    nl.set_config(g, configs.back());
  }
  const double after = circuit_delay(nl, tech).critical_path;
  EXPECT_NE(before, after);
}

}  // namespace
}  // namespace tr::delay
