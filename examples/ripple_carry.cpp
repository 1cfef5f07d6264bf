// The paper's Sec. 1.1 walk-through: a ripple-carry adder where every
// input has the same equilibrium probability (0.5), yet the carry chain
// accumulates transition density — so the power-optimal transistor
// ordering differs per full-adder stage even though all probabilities
// are equal. This example builds the adder, shows the density profile,
// optimizes it and validates the saving with the switch-level simulator.
//
// Run: ./build/examples/ripple_carry [bits]

#include <cstdlib>
#include <iostream>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "opt/optimizer.hpp"
#include "opt/scenario.hpp"
#include "power/circuit_power.hpp"
#include "sim/switch_sim.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tr;

  const int bits = argc > 1 ? std::atoi(argv[1]) : 8;
  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const celllib::Tech tech;
  const double clock_hz = 1e6;

  netlist::Netlist adder = benchgen::ripple_carry_adder(library, bits);
  std::cout << "rca" << bits << ": " << adder.gate_count() << " gates, "
            << adder.primary_inputs().size() << " inputs\n\n";

  // Latched operands: P = 0.5, D = 0.5 transitions/cycle (scenario B).
  const auto pi_stats = opt::scenario_b(adder, clock_hz);
  const auto activity = power::propagate_activity(adder, pi_stats);

  std::cout << "Carry-chain activity (probabilities stay flat, densities "
               "climb):\n\n";
  TextTable profile({"carry", "P", "D [t/cycle]"});
  for (int i = 0; i <= bits; ++i) {
    const std::string name = i == 0 ? "cin" : numbered("c", i);
    const netlist::NetId net = adder.find_net(name);
    if (net < 0) continue;
    const auto& s = activity.net_stats[static_cast<std::size_t>(net)];
    profile.add_row({name, format_fixed(s.prob, 3),
                     format_fixed(s.density / clock_hz, 3)});
  }
  profile.print(std::cout);

  // Optimize and report.
  const double before = power::circuit_power(adder, activity, tech).total();
  const opt::OptimizeReport report = opt::optimize(adder, pi_stats, tech);
  const double after = power::circuit_power(adder, activity, tech).total();

  std::cout << "\nOptimizer: " << report.gates_changed << "/"
            << adder.gate_count() << " gates reordered, model power "
            << format_fixed(before * 1e6, 3) << " -> "
            << format_fixed(after * 1e6, 3) << " uW ("
            << format_fixed(percent_reduction(before, after), 1)
            << "% reduction)\n";

  // Validate against the switch-level simulator: compare the optimized
  // netlist with the worst-case ordering under identical input waveforms.
  netlist::Netlist worst = benchgen::ripple_carry_adder(library, bits);
  opt::OptimizeOptions maximize;
  maximize.objective = opt::Objective::maximize_power;
  opt::optimize(worst, pi_stats, tech, maximize);

  sim::SimOptions so;
  so.seed = 2024;
  so.measure_time = 400.0 / (0.5 * clock_hz);  // ~400 toggles per input
  const sim::SimResult sim_best = sim::simulate(adder, pi_stats, tech, so);
  const sim::SimResult sim_worst = sim::simulate(worst, pi_stats, tech, so);
  require(!sim_best.truncated && !sim_worst.truncated,
          "simulation hit the event budget; results cover partial windows");
  const double p_best = sim_best.power;
  const double p_worst = sim_worst.power;
  std::cout << "Switch-level check: best " << format_fixed(p_best * 1e6, 3)
            << " uW vs worst " << format_fixed(p_worst * 1e6, 3) << " uW ("
            << format_fixed(percent_reduction(p_worst, p_best), 1)
            << "% simulated reduction)\n";
  return 0;
}
