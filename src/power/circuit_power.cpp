#include "power/circuit_power.hpp"

#include "util/error.hpp"

namespace tr::power {

using boolfn::SignalStats;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

CircuitActivity propagate_activity(
    const Netlist& netlist,
    const std::map<NetId, SignalStats>& pi_stats) {
  CircuitActivity activity;
  activity.net_stats.assign(static_cast<std::size_t>(netlist.net_count()),
                            SignalStats{0.5, 0.0});

  for (NetId id : netlist.primary_inputs()) {
    const auto it = pi_stats.find(id);
    require(it != pi_stats.end(),
            "propagate_activity: missing statistics for primary input '",
            netlist.net(id).name, "'");
    activity.net_stats[static_cast<std::size_t>(id)] = it->second;
  }

  for (GateId g : netlist.topological_order()) {
    const netlist::GateInst& inst = netlist.gate(g);
    std::vector<SignalStats> inputs;
    inputs.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) {
      inputs.push_back(activity.net_stats[static_cast<std::size_t>(in)]);
    }
    const boolfn::TruthTable f = netlist.library().cell(inst.cell).function();
    activity.net_stats[static_cast<std::size_t>(inst.output)] =
        boolfn::propagate(f, inputs);
  }
  return activity;
}

CircuitPower circuit_power(const Netlist& netlist,
                           const CircuitActivity& activity,
                           const celllib::Tech& tech, ModelKind kind) {
  require(activity.net_stats.size() ==
              static_cast<std::size_t>(netlist.net_count()),
          "circuit_power: activity arity mismatch");

  CircuitPower result;
  result.per_gate.resize(static_cast<std::size_t>(netlist.gate_count()), 0.0);

  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const netlist::GateInst& inst = netlist.gate(g);
    const gategraph::GateGraph graph(inst.config);
    const std::vector<double> caps = celllib::node_capacitances(
        graph, tech, netlist.external_load(g, tech));
    std::vector<SignalStats> inputs;
    inputs.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) {
      inputs.push_back(activity.net_stats[static_cast<std::size_t>(in)]);
    }
    const GatePower gp = kind == ModelKind::extended
                             ? evaluate_gate_power(graph, caps, inputs, tech)
                             : evaluate_output_only_power(graph, caps, inputs,
                                                          tech);
    result.per_gate[static_cast<std::size_t>(g)] = gp.total_power;
    result.gate_power += gp.total_power;
  }

  // Primary-input nets: their load (fanout pin capacitance + wire) is
  // charged by the external driver; the 1/2 C V^2 D estimate is exact for
  // a net whose density is known. Configuration-independent, but included
  // so model and switch-level totals describe the same circuit.
  for (NetId id : netlist.primary_inputs()) {
    const netlist::Net& net = netlist.net(id);
    double cap = tech.c_wire;
    for (const auto& [fan_gate, pin] : net.fanouts) {
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

}  // namespace tr::power
