// Reproduces the paper's Sec. 1.1 ripple-carry motivation: with equal
// equilibrium probabilities (0.5 everywhere), the transition density of
// the propagated carry grows along the adder chain — information the
// equilibrium probability alone cannot expose — and the transistor
// reordering optimizer exploits exactly that.
//
// Expected shape: carry density rises towards its fixed point (2x the
// operand density) while all probabilities stay at 0.5; optimizing the
// adder yields a larger reduction than optimizing under a
// (wrong) "all densities equal" assumption would suggest.

#include <iostream>

#include "benchgen/generators.hpp"
#include "celllib/library.hpp"
#include "harness.hpp"
#include "opt/scenario.hpp"
#include "power/circuit_power.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main() {
  using namespace tr;

  const celllib::CellLibrary lib = celllib::CellLibrary::standard();
  const celllib::Tech tech;
  const double clock_hz = 1e6;

  std::cout << "Sec. 1.1 reproduction: carry-chain transition density in a "
               "16-bit ripple-carry adder\n(operands latched: P=0.5, D=0.5 "
               "t/cycle)\n\n";

  const netlist::Netlist adder = benchgen::ripple_carry_adder(lib, 16);
  const auto pi_stats = opt::scenario_b(adder, clock_hz);
  const auto activity = power::propagate_activity(adder, pi_stats);

  TextTable table({"net", "equilibrium P", "density [t/cycle]"});
  for (int i = 0; i <= 16; i += 2) {
    const std::string name = i == 0 ? "cin" : numbered("c", i);
    const netlist::NetId net = adder.find_net(name);
    if (net < 0) continue;
    const auto& s = activity.net_stats[static_cast<std::size_t>(net)];
    table.add_row({name, format_fixed(s.prob, 3),
                   format_fixed(s.density / clock_hz, 3)});
  }
  table.print(std::cout);
  std::cout << "\nProbabilities stay essentially flat while the carry "
               "density more than\ndoubles along the chain (ideal majority "
               "fixed point: 1.0 t/cycle; the\ngate-level propagation "
               "converges slightly above it because the mapped\nfull-adder "
               "reconverges internally): the paper's argument that\n"
               "equilibrium probabilities alone cannot drive the "
               "optimization.\n\n";

  std::cout << "Optimizing ripple-carry adders (scenario B):\n\n";
  TextTable opt_table({"adder", "gates", "M [%]", "S [%]", "D [%]"});
  for (int bits : {4, 8, 16, 32}) {
    const netlist::Netlist nl = benchgen::ripple_carry_adder(lib, bits);
    const auto stats = opt::scenario_b(nl, clock_hz);
    const bench::PipelineRow row =
        bench::run_pipeline(nl, stats, tech, 9000 + bits, 300.0);
    opt_table.add_row({numbered("rca", bits),
                       std::to_string(row.gates),
                       format_fixed(row.model_reduction, 1),
                       format_fixed(row.sim_reduction, 1),
                       format_fixed(row.delay_increase, 1)});
  }
  opt_table.print(std::cout);
  return 0;
}
