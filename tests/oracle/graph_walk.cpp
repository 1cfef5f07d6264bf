#include "oracle/graph_walk.hpp"

#include "celllib/cell.hpp"
#include "util/error.hpp"

namespace tr::oracle {

using boolfn::SignalStats;
using gategraph::GateGraph;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

power::GatePower evaluate_output_only_power(
    const GateGraph& graph, const std::vector<double>& node_caps,
    const std::vector<SignalStats>& inputs, const celllib::Tech& tech) {
  power::GatePower full =
      power::evaluate_gate_power(graph, node_caps, inputs, tech);
  power::GatePower result;
  result.nodes.push_back(full.nodes.back());
  result.total_power = result.nodes.back().power;
  result.output = full.output;
  return result;
}

power::CircuitPower circuit_power_walk(const Netlist& netlist,
                                       const power::CircuitActivity& activity,
                                       const celllib::Tech& tech,
                                       power::ModelKind kind) {
  require(activity.net_stats.size() ==
              static_cast<std::size_t>(netlist.net_count()),
          "circuit_power_walk: activity arity mismatch");

  power::CircuitPower result;
  result.per_gate.resize(static_cast<std::size_t>(netlist.gate_count()), 0.0);
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const netlist::GateInst& inst = netlist.gate(g);
    const GateGraph graph(inst.config);
    const std::vector<double> caps = celllib::node_capacitances(
        graph, tech, netlist.external_load(g, tech));
    std::vector<SignalStats> inputs;
    inputs.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) {
      inputs.push_back(activity.net_stats[static_cast<std::size_t>(in)]);
    }
    const power::GatePower gp =
        kind == power::ModelKind::extended
            ? power::evaluate_gate_power(graph, caps, inputs, tech)
            : evaluate_output_only_power(graph, caps, inputs, tech);
    result.per_gate[static_cast<std::size_t>(g)] = gp.total_power;
    result.gate_power += gp.total_power;
  }

  // Primary-input nets, as circuit_power charges them.
  for (NetId id : netlist.primary_inputs()) {
    double cap = tech.c_wire;
    for (const auto& [fan_gate, pin] : netlist.net(id).fanouts) {
      cap += netlist.library()
                 .cell(netlist.gate(fan_gate).cell)
                 .pin_capacitance(tech, pin);
    }
    result.pi_load_power +=
        tech.energy_per_transition(cap) *
        activity.net_stats[static_cast<std::size_t>(id)].density;
  }
  return result;
}

delay::CircuitDelay circuit_delay_walk(const Netlist& netlist,
                                       const celllib::Tech& tech) {
  delay::CircuitDelay result;
  result.net_arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  for (GateId g : netlist.topological_order()) {
    const netlist::GateInst& inst = netlist.gate(g);
    const GateGraph graph(inst.config);
    const std::vector<double> caps = celllib::node_capacitances(
        graph, tech, netlist.external_load(g, tech));
    result.net_arrival[static_cast<std::size_t>(inst.output)] =
        delay::output_arrival(inst, result.net_arrival,
                              delay::gate_delays(graph, caps, tech).pin_delay);
  }
  result.critical_path = delay::critical_path(netlist, result.net_arrival);
  return result;
}

}  // namespace tr::oracle
