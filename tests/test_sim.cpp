// Tests for the switch-level simulator: input-process statistics, model
// agreement in zero-delay mode, glitch generation with delays, energy
// accounting and determinism.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "celllib/cell.hpp"
#include "oracle/reference_sim.hpp"
#include "power/circuit_power.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/sim_engine.hpp"
#include "sim/switch_sim.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

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

Netlist inverter_chain(int length) {
  Netlist nl(lib(), "chain");
  NetId prev = nl.add_net("a");
  nl.mark_primary_input(prev);
  for (int i = 0; i < length; ++i) {
    const NetId next = nl.add_net(numbered("n", i));
    nl.add_gate(numbered("u", i), "inv", {prev}, next);
    prev = next;
  }
  nl.mark_primary_output(prev);
  return nl;
}

TEST(SwitchSim, InputProcessMatchesRequestedStatistics) {
  // The CTMC generator must realise the requested (P, D) pair.
  const Netlist nl = inverter_chain(1);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.measure_time = 4e-3;
  opt.seed = 5;
  for (const auto& [p, d] :
       std::vector<std::pair<double, double>>{{0.5, 1e5}, {0.2, 4e5},
                                              {0.85, 5e4}}) {
    const SimResult r =
        simulate(nl, {{a, SignalStats{p, d}}}, tech, opt);
    EXPECT_NEAR(r.nets[static_cast<std::size_t>(a)].prob, p, 0.04)
        << "P=" << p;
    EXPECT_NEAR(r.nets[static_cast<std::size_t>(a)].density / d, 1.0, 0.08)
        << "D=" << d;
  }
}

TEST(SwitchSim, FrozenInputNeverToggles) {
  const Netlist nl = inverter_chain(1);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.seed = 6;
  const SimResult r = simulate(nl, {{a, SignalStats{1.0, 0.0}}}, tech, opt);
  EXPECT_EQ(r.nets[static_cast<std::size_t>(a)].density, 0.0);
  EXPECT_NEAR(r.nets[static_cast<std::size_t>(a)].prob, 1.0, 1e-12);
  EXPECT_EQ(r.energy, 0.0);
}

TEST(SwitchSim, InverterChainPropagatesEveryTransition) {
  // A tree circuit has no reconvergence: in zero-delay mode every net of
  // the chain shows the input density.
  const Netlist nl = inverter_chain(4);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.delay_model = DelayModel::zero;
  opt.measure_time = 2e-3;
  opt.seed = 7;
  const double d = 2e5;
  const SimResult r = simulate(nl, {{a, SignalStats{0.5, d}}}, tech, opt);
  for (int i = 0; i < 4; ++i) {
    const NetId net = nl.find_net(numbered("n", i));
    EXPECT_NEAR(r.nets[static_cast<std::size_t>(net)].density /
                    r.nets[static_cast<std::size_t>(a)].density,
                1.0, 1e-9)
        << "stage " << i;
  }
}

TEST(SwitchSim, EnergyAccountingMatchesTransitionCounts) {
  // Chain of inverters: every output transition costs exactly
  // 1/2 C_out V^2; PI transitions cost 1/2 C_load V^2.
  const Netlist nl = inverter_chain(2);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.delay_model = DelayModel::zero;
  opt.seed = 8;
  opt.measure_time = 1e-3;
  const SimResult r = simulate(nl, {{a, SignalStats{0.5, 1e5}}}, tech, opt);

  // Reconstruct energy from observed densities and the known caps.
  double expected = 0.0;
  const double t = opt.measure_time;
  const double pi_cap = tech.c_wire + lib().cell("inv").pin_capacitance(tech, 0);
  expected += tech.energy_per_transition(pi_cap) *
              r.nets[static_cast<std::size_t>(a)].density * t;
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    const gategraph::GateGraph graph(nl.gate(g).config);
    const auto caps = celllib::node_capacitances(
        graph, tech, nl.external_load(g, tech));
    const NetId out = nl.gate(g).output;
    expected += tech.energy_per_transition(
                    caps[gategraph::GateGraph::output_node]) *
                r.nets[static_cast<std::size_t>(out)].density * t;
  }
  EXPECT_NEAR(r.energy / expected, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.internal_node_energy, 0.0);  // inverters have none
  EXPECT_NEAR(r.power * t, r.energy, 1e-18);
}

TEST(SwitchSim, DeterministicForFixedSeed) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 3);
  const Tech tech;
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 2e5};
  SimOptions opt;
  opt.seed = 99;
  opt.measure_time = 5e-4;
  const SimResult r1 = simulate(nl, stats, tech, opt);
  const SimResult r2 = simulate(nl, stats, tech, opt);
  EXPECT_EQ(r1.energy, r2.energy);
  EXPECT_EQ(r1.event_count, r2.event_count);
  opt.seed = 100;
  const SimResult r3 = simulate(nl, stats, tech, opt);
  EXPECT_NE(r1.energy, r3.energy);
}

TEST(SwitchSim, ZeroDelayDensityTracksNajmOnReadOnceCircuit) {
  // A balanced nand2 tree over distinct PIs is read-once: every net
  // feeds exactly one pin, so Najm's independence assumption holds and
  // the propagated densities must match the zero-delay simulation.
  const Tech tech;
  Netlist nl(lib(), "nandtree");
  std::vector<NetId> level;
  for (int i = 0; i < 8; ++i) {
    const NetId net = nl.add_net(numbered("x", i));
    nl.mark_primary_input(net);
    level.push_back(net);
  }
  int counter = 0;
  while (level.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const NetId out = nl.add_net(numbered("t", counter));
      nl.add_gate(numbered("g", counter++), "nand2",
                  {level[i], level[i + 1]}, out);
      next.push_back(out);
    }
    level = std::move(next);
  }
  nl.mark_primary_output(level.front());

  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 1e5};
  SimOptions opt;
  opt.delay_model = DelayModel::zero;
  opt.measure_time = 6e-3;
  opt.seed = 11;
  const SimResult sim = simulate(nl, stats, tech, opt);
  const auto activity = power::propagate_activity(nl, stats);
  for (netlist::GateId g = 0; g < nl.gate_count(); ++g) {
    const NetId out = nl.gate(g).output;
    const double predicted =
        activity.net_stats[static_cast<std::size_t>(out)].density;
    const double observed = sim.nets[static_cast<std::size_t>(out)].density;
    EXPECT_NEAR(observed / predicted, 1.0, 0.15) << nl.net(out).name;
  }
}

TEST(SwitchSim, CorrelationMakesNajmUnderestimateParityTrees) {
  // The XOR macro (aoi21 + nor2) reconverges internally, violating the
  // spatial-independence assumption: gate-level Najm *underestimates* the
  // true parity-tree activity (a documented limitation the paper shares).
  const Netlist nl = benchgen::parity_tree(lib(), 4);
  const Tech tech;
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 1e5};
  SimOptions opt;
  opt.delay_model = DelayModel::zero;
  opt.measure_time = 4e-3;
  opt.seed = 11;
  const SimResult sim = simulate(nl, stats, tech, opt);
  const auto activity = power::propagate_activity(nl, stats);
  const NetId out = nl.primary_outputs().front();
  const double predicted =
      activity.net_stats[static_cast<std::size_t>(out)].density;
  const double observed = sim.nets[static_cast<std::size_t>(out)].density;
  // A 2-level tree of decomposed XORs: true density is (4/3)^2 ~ 1.78x
  // the independence estimate.
  EXPECT_GT(observed, predicted * 1.4);
  EXPECT_LT(observed, predicted * 2.2);
}

TEST(SwitchSim, GateDelaysCreateGlitches) {
  // Explicit glitch generator: out = nand2(a, delayed(!a)) is logically
  // constant 1, so every committed output transition is a useless
  // (glitch) transition. They exist with real gate delays and vanish in
  // zero-delay mode.
  const Tech tech;
  Netlist nl(lib(), "glitcher");
  const NetId a = nl.add_net("a");
  nl.mark_primary_input(a);
  NetId prev = a;
  for (int i = 0; i < 3; ++i) {  // odd-length inverter chain = !a, skewed
    const NetId next = nl.add_net(numbered("n", i));
    nl.add_gate(numbered("u", i), "inv", {prev}, next);
    prev = next;
  }
  const NetId y = nl.add_net("y");
  nl.add_gate("g", "nand2", {a, prev}, y);
  nl.mark_primary_output(y);

  std::map<NetId, SignalStats> stats{{a, SignalStats{0.5, 2e5}}};
  SimOptions opt;
  opt.measure_time = 2e-3;
  opt.seed = 12;
  opt.delay_model = DelayModel::elmore;
  const SimResult with_delays = simulate(nl, stats, tech, opt);
  opt.delay_model = DelayModel::zero;
  const SimResult zero_delay = simulate(nl, stats, tech, opt);

  const double glitch_density =
      with_delays.nets[static_cast<std::size_t>(y)].density;
  EXPECT_GT(glitch_density, 0.0);
  EXPECT_EQ(zero_delay.nets[static_cast<std::size_t>(y)].density, 0.0);
  EXPECT_GT(with_delays.energy, zero_delay.energy);
}

TEST(SwitchSim, InternalNodeEnergyIsCounted) {
  const Netlist nl = benchgen::ripple_carry_adder(lib(), 2);
  const Tech tech;
  std::map<NetId, SignalStats> stats;
  for (NetId id : nl.primary_inputs()) stats[id] = {0.5, 2e5};
  SimOptions opt;
  opt.seed = 13;
  const SimResult r = simulate(nl, stats, tech, opt);
  EXPECT_GT(r.internal_node_energy, 0.0);
  EXPECT_GT(r.output_node_energy, 0.0);
  EXPECT_GT(r.pi_energy, 0.0);
  EXPECT_NEAR(r.energy,
              r.internal_node_energy + r.output_node_energy + r.pi_energy,
              1e-18);
  // Per-gate energies sum to the non-PI part.
  double per_gate_sum = 0.0;
  for (double e : r.per_gate_energy) per_gate_sum += e;
  EXPECT_NEAR(per_gate_sum, r.internal_node_energy + r.output_node_energy,
              1e-18);
}

TEST(SwitchSim, PiEnergyCanBeExcluded) {
  const Netlist nl = inverter_chain(2);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.seed = 14;
  opt.count_pi_energy = false;
  const SimResult r = simulate(nl, {{a, SignalStats{0.5, 1e5}}}, tech, opt);
  EXPECT_EQ(r.pi_energy, 0.0);
  EXPECT_GT(r.energy, 0.0);
}

TEST(SwitchSim, ValidatesInputs) {
  const Netlist nl = inverter_chain(1);
  const Tech tech;
  SimOptions opt;
  EXPECT_THROW(simulate(nl, std::map<NetId, SignalStats>{}, tech, opt),
               Error);  // missing PI stats
  opt.measure_time = 0.0;
  const NetId a = nl.find_net("a");
  EXPECT_THROW(simulate(nl, {{a, SignalStats{0.5, 1e5}}}, tech, opt), Error);
}

/// Runs `f`, which must throw tr::Error; returns the caught error.
template <class F>
Error caught_error(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e;
  }
  ADD_FAILURE() << "expected tr::Error";
  return Error("no error");
}

TEST(SimEngine, RefusesGateWiderThanSixInputs) {
  // The packed event encodes single-word (<= 6 input) truth tables; a
  // wider gate is refused at construction, naming the gate, and the same
  // structured error reaches monte_carlo callers.
  CellLibrary wide_lib;
  std::vector<std::string> pins;
  std::vector<gategraph::SpNode> leaves;
  for (int i = 0; i < 7; ++i) {
    pins.push_back(numbered("i", i));
    leaves.push_back(gategraph::SpNode::transistor(i));
  }
  wide_lib.add(celllib::Cell("nor7", pins,
                             gategraph::SpNode::parallel(std::move(leaves))));
  Netlist nl(wide_lib, "wide");
  std::vector<NetId> inputs;
  std::map<NetId, SignalStats> stats;
  for (int i = 0; i < 7; ++i) {
    inputs.push_back(nl.add_net(numbered("x", i)));
    nl.mark_primary_input(inputs.back());
    stats[inputs.back()] = {0.5, 1e5};
  }
  const NetId y = nl.add_net("y");
  nl.add_gate("big_nor", "nor7", inputs, y);
  nl.mark_primary_output(y);
  const Tech tech;

  const Error direct =
      caught_error([&] { SimEngine(nl, stats, tech, SimOptions{}); });
  EXPECT_EQ(direct.code(), ErrorCode::invalid_argument);
  EXPECT_NE(std::string(direct.what()).find("'big_nor'"), std::string::npos)
      << direct.what();
  EXPECT_NE(std::string(direct.what()).find("7 inputs"), std::string::npos)
      << direct.what();

  MonteCarloOptions mc;
  mc.replications = 2;
  mc.threads = 1;
  const Error via_mc =
      caught_error([&] { monte_carlo(nl, stats, tech, mc); });
  EXPECT_EQ(via_mc.code(), ErrorCode::invalid_argument);
  EXPECT_STREQ(via_mc.what(), direct.what());
}

TEST(SimEngine, RefusesGateWithMoreInternalNodesThanTheNodeMask) {
  // A gate's internal-node state is one NodeMask word. A two-input NAND
  // whose pull-down stack repeats pin a above one b device has one
  // internal node per a device, each charged at a & !b and discharged at
  // a & b: the tallest admissible stack fills the word and matches the
  // reference loop bit for bit; one device more is refused at
  // construction, naming the gate.
  constexpr int max_nodes = ReplicationScratch::max_gate_nodes;
  CellLibrary tall_lib;
  for (int nodes : {max_nodes, max_nodes + 1}) {
    std::vector<gategraph::SpNode> stack;
    for (int d = 0; d <= nodes; ++d) {
      stack.push_back(gategraph::SpNode::transistor(d < nodes ? 0 : 1));
    }
    tall_lib.add(celllib::Cell(numbered("stack", nodes), {"a", "b"},
                               gategraph::SpNode::series(std::move(stack))));
  }
  const auto one_gate = [&](int nodes) {
    Netlist nl(tall_lib, "tall");
    const NetId a = nl.add_net("a");
    const NetId b = nl.add_net("b");
    const NetId y = nl.add_net("y");
    nl.mark_primary_input(a);
    nl.mark_primary_input(b);
    nl.add_gate("tall_nand", numbered("stack", nodes), {a, b}, y);
    nl.mark_primary_output(y);
    return nl;
  };
  const Tech tech;
  SimOptions opt;
  opt.measure_time = 2e-4;

  const Netlist widest = one_gate(max_nodes);
  const std::map<NetId, SignalStats> stats = {
      {widest.find_net("a"), {0.5, 3e5}}, {widest.find_net("b"), {0.5, 3e5}}};
  const SimResult fast = SimEngine(widest, stats, tech, opt).run(9);
  const SimResult reference =
      oracle::ReferenceSim(widest, stats, tech, opt).run(9);
  EXPECT_GT(fast.internal_node_energy, 0.0);
  EXPECT_EQ(fast.internal_node_energy, reference.internal_node_energy);
  EXPECT_EQ(fast.energy, reference.energy);
  EXPECT_EQ(fast.event_count, reference.event_count);

  const Netlist too_tall = one_gate(max_nodes + 1);
  const Error error =
      caught_error([&] { SimEngine(too_tall, stats, tech, opt); });
  EXPECT_EQ(error.code(), ErrorCode::invalid_argument);
  const std::string what = error.what();
  EXPECT_NE(what.find("'tall_nand'"), std::string::npos) << what;
  EXPECT_NE(what.find(std::to_string(max_nodes + 1) + " internal nodes"),
            std::string::npos)
      << what;
}

TEST(SimEngine, RefusesCircuitDeeperThanTheLevelRange) {
  // Levels occupy 16 bits of the event order word: the deepest
  // admissible output sits at EventScheduler::max_level.
  const Tech tech;
  SimOptions opt;
  opt.measure_time = 1e-6;
  const Netlist deepest = inverter_chain(EventScheduler::max_level);
  const NetId a = deepest.find_net("a");
  EXPECT_NO_THROW(
      SimEngine(deepest, {{a, SignalStats{0.5, 1e5}}}, tech, opt));

  const Netlist too_deep = inverter_chain(EventScheduler::max_level + 1);
  const Error error = caught_error([&] {
    SimEngine(too_deep, {{too_deep.find_net("a"), SignalStats{0.5, 1e5}}},
              tech, opt);
  });
  EXPECT_EQ(error.code(), ErrorCode::invalid_argument);
  const std::string last = numbered("'u", EventScheduler::max_level) + "'";
  EXPECT_NE(std::string(error.what()).find(last), std::string::npos)
      << error.what();
}

// Sweep: observed equilibrium probability tracks the request across the
// unit interval.
class PiProbabilitySweep : public ::testing::TestWithParam<double> {};

TEST_P(PiProbabilitySweep, ObservedProbabilityMatches) {
  const Netlist nl = inverter_chain(1);
  const NetId a = nl.find_net("a");
  const Tech tech;
  SimOptions opt;
  opt.seed = 21;
  opt.measure_time = 4e-3;
  const double p = GetParam();
  const SimResult r =
      simulate(nl, {{a, SignalStats{p, 2e5}}}, tech, opt);
  EXPECT_NEAR(r.nets[static_cast<std::size_t>(a)].prob, p, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, PiProbabilitySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace tr::sim
