// Interactive gate explorer: dump every transistor reordering of a
// library cell — its H/G path functions per internal node, the per-node
// power breakdown under user-given input statistics, and the per-pin
// Elmore delays. This is paper Fig. 2 + Fig. 5 as a tool.
//
// Usage:
//   explore_gate [cell] [P:D ...]   (one P:D pair per pin)
// Example:
//   ./build/examples/explore_gate oai21 0.5:1e4 0.5:1e5 0.5:1e6

#include <cstdlib>
#include <iostream>
#include <string>

#include "celllib/library.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tr;
  using boolfn::SignalStats;

  const celllib::CellLibrary library = celllib::CellLibrary::standard();
  const std::string cell_name = argc > 1 ? argv[1] : "oai21";
  const celllib::Cell* cell = library.find(cell_name);
  if (cell == nullptr) {
    std::cerr << "unknown cell '" << cell_name << "'; available:";
    for (const auto& name : library.cell_names()) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
  }

  std::vector<SignalStats> inputs;
  for (int pin = 0; pin < cell->input_count(); ++pin) {
    SignalStats s{0.5, 1e5};
    if (argc > 2 + pin) {
      const std::string arg = argv[2 + pin];
      const auto colon = arg.find(':');
      require(colon != std::string::npos, "expected P:D, got '", arg, "'");
      s.prob = std::stod(arg.substr(0, colon));
      s.density = std::stod(arg.substr(colon + 1));
    }
    inputs.push_back(s);
  }

  const celllib::Tech tech;
  const double load = 4.0 * tech.c_gate;

  std::cout << "cell " << cell->name() << ", function y = "
            << cell->function().to_binary_string() << " (truth table, "
            << "minterm 0 first)\n"
            << "pins:";
  for (int pin = 0; pin < cell->input_count(); ++pin) {
    std::cout << " " << cell->pin_names()[static_cast<std::size_t>(pin)]
              << "(P=" << inputs[static_cast<std::size_t>(pin)].prob
              << ",D=" << inputs[static_cast<std::size_t>(pin)].density << ")";
  }
  std::cout << "\n#configurations = " << cell->config_count()
            << ", layout instances = " << cell->instance_count() << "\n\n";

  const auto configs = cell->topology().all_reorderings();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const gategraph::GateGraph graph(configs[i]);
    const auto caps = celllib::node_capacitances(graph, tech, load);
    const auto gp = power::evaluate_gate_power(graph, caps, inputs, tech);
    const auto delays = delay::gate_delays(graph, caps, tech);

    std::cout << "configuration " << i << ": pull-down "
              << gategraph::encode(configs[i].nmos()) << ", pull-up "
              << gategraph::encode(configs[i].pmos()) << "\n";
    TextTable table({"node", "H (paths to vdd)", "G (paths to vss)", "P(n)",
                     "D(n) [t/s]", "C [fF]", "power [uW]"});
    for (const auto& node : gp.nodes) {
      table.add_row({graph.node_name(node.node),
                     graph.h_function(node.node).to_binary_string(),
                     graph.g_function(node.node).to_binary_string(),
                     format_fixed(node.prob, 3),
                     format_fixed(node.density, 0),
                     format_fixed(node.capacitance * 1e15, 1),
                     format_fixed(node.power * 1e6, 4)});
    }
    table.print(std::cout);
    std::cout << "total " << format_fixed(gp.total_power * 1e6, 4)
              << " uW; pin delays [ps]:";
    for (int pin = 0; pin < cell->input_count(); ++pin) {
      std::cout << " " << cell->pin_names()[static_cast<std::size_t>(pin)]
                << "="
                << format_fixed(
                       delays.pin_delay[static_cast<std::size_t>(pin)] * 1e12,
                       1);
    }
    std::cout << "\n\n";
  }
  return 0;
}
