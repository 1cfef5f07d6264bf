#include "celllib/cell.hpp"

#include "util/error.hpp"

namespace tr::celllib {

Cell::Cell(std::string name, std::vector<std::string> pin_names,
           gategraph::SpNode pulldown)
    : name_(std::move(name)),
      pin_names_(std::move(pin_names)),
      topology_(gategraph::GateTopology::from_pulldown(
          std::move(pulldown), static_cast<int>(pin_names_.size()))),
      function_(topology_.output_function()) {
  require(!name_.empty(), "Cell: empty name");
  require(!pin_names_.empty(), "Cell: a cell needs at least one pin");
  // Every pin must actually drive a device pair.
  for (int j = 0; j < input_count(); ++j) {
    require(function_.depends_on(j) || input_count() == 1, "Cell ", name_,
            ": pin ", pin_names_[static_cast<std::size_t>(j)],
            " does not affect the output");
  }
  // Reordering moves devices but never changes how many a pin drives, so
  // the canonical configuration's counts hold for every configuration.
  const gategraph::GateGraph graph(topology_);
  pin_devices_.assign(pin_names_.size(), 0);
  for (const auto& t : graph.transistors()) {
    ++pin_devices_[static_cast<std::size_t>(t.input)];
  }
}

double Cell::pin_capacitance(const Tech& tech, int pin) const {
  require(pin >= 0 && pin < input_count(), "Cell::pin_capacitance: bad pin");
  return tech.c_gate *
         static_cast<double>(pin_devices_[static_cast<std::size_t>(pin)]);
}

int Cell::instance_count() const {
  const auto groups = gategraph::group_by_instance(topology_.all_reorderings());
  return static_cast<int>(groups.size());
}

std::vector<double> node_capacitances(const gategraph::GateGraph& graph,
                                      const Tech& tech, double external_load) {
  const std::vector<int> terminals = graph.terminal_counts();
  std::vector<double> caps(terminals.size(), 0.0);
  for (std::size_t v = 0; v < terminals.size(); ++v) {
    const int node = static_cast<int>(v);
    if (node == gategraph::GateGraph::vss_node ||
        node == gategraph::GateGraph::vdd_node) {
      continue;  // rails are ideal supplies
    }
    caps[v] = node_capacitance(tech, terminals[v],
                               node == gategraph::GateGraph::output_node,
                               external_load);
  }
  return caps;
}

}  // namespace tr::celllib
