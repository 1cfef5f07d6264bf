#pragma once
// Library cells: name, pins, logic function and canonical transistor
// topology. A Cell owns the *canonical* configuration; the reordering
// machinery (gategraph) derives every other configuration from it.

#include <string>
#include <vector>

#include "boolfn/truth_table.hpp"
#include "celllib/tech.hpp"
#include "gategraph/gate_graph.hpp"
#include "gategraph/gate_topology.hpp"

namespace tr::celllib {

/// One library cell (paper Table 2 row).
class Cell {
public:
  Cell(std::string name, std::vector<std::string> pin_names,
       gategraph::SpNode pulldown);

  const std::string& name() const noexcept { return name_; }
  int input_count() const noexcept {
    return static_cast<int>(pin_names_.size());
  }
  const std::vector<std::string>& pin_names() const noexcept {
    return pin_names_;
  }
  /// Output logic function y = f(pins), pin j = variable j.
  const boolfn::TruthTable& function() const noexcept { return function_; }
  /// The canonical transistor configuration.
  const gategraph::GateTopology& topology() const noexcept { return topology_; }

  int transistor_count() const { return topology_.transistor_count(); }
  /// Cell area in unit-transistor equivalents (all configurations of a
  /// cell share it: reordering is area-neutral, paper Sec. 5.1).
  double area() const { return static_cast<double>(transistor_count()); }

  /// Input pin capacitance: every pin drives one NMOS and one PMOS gate
  /// terminal per device pair connected to it (counted once, at
  /// construction).
  double pin_capacitance(const Tech& tech, int pin) const;

  /// Distinct transistor reorderings (Table 2 #C).
  std::uint64_t config_count() const {
    return topology_.reordering_count_formula();
  }

  /// Number of sea-of-gates layout instances needed to cover all
  /// configurations (paper Sec. 5.1, e.g. oai21 needs oai21[A] and
  /// oai21[B]).
  int instance_count() const;

private:
  std::string name_;
  std::vector<std::string> pin_names_;
  gategraph::GateTopology topology_;
  boolfn::TruthTable function_;
  std::vector<int> pin_devices_;  ///< transistors gated by each pin
};

/// Capacitance of one node from its diffusion terminal count; the output
/// node adds the external load on top. The single definition shared by
/// node_capacitances (reference scoring path) and the catalog scorer
/// (opt::score_catalog), so the two paths cannot drift apart.
inline double node_capacitance(const Tech& tech, int terminal_count,
                               bool is_output, double external_load) {
  double cap = tech.c_diff * static_cast<double>(terminal_count);
  if (is_output) cap += external_load;
  return cap;
}

/// Per-node capacitances of one configuration of a cell:
/// index = GateGraph node id. Rails get 0 (their charge comes from the
/// supply and is accounted as the energy drawn per transition of the
/// charged nodes); the output node adds `external_load` farads on top of
/// its diffusion capacitance.
std::vector<double> node_capacitances(const gategraph::GateGraph& graph,
                                      const Tech& tech, double external_load);

}  // namespace tr::celllib
