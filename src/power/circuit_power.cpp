#include "power/circuit_power.hpp"

#include "celllib/catalog.hpp"
#include "celllib/cell.hpp"
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

  std::vector<SignalStats> inputs;
  std::vector<double> probs;
  boolfn::MintermWeights weights;
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const netlist::GateInst& inst = netlist.gate(g);
    const auto slot = netlist.library().catalog_slot(inst.config);
    inputs.clear();
    probs.clear();
    for (NetId in : inst.inputs) {
      inputs.push_back(activity.net_stats[static_cast<std::size_t>(in)]);
      probs.push_back(inputs.back().prob);
    }
    weights.assign(probs);
    const double load = netlist.external_load(g, tech);
    // Model node order, output last; output_only reads the last alone.
    const std::vector<int>& nodes =
        slot.catalog->configs()[static_cast<std::size_t>(slot.index)].nodes;
    double total = 0.0;
    for (std::size_t k = kind == ModelKind::extended ? 0 : nodes.size() - 1;
         k < nodes.size(); ++k) {
      const celllib::CatalogNode& node =
          slot.catalog->nodes()[static_cast<std::size_t>(nodes[k])];
      total += evaluate_node_tables(
                   node.h, node.g, node.dh.data(), node.dg.data(),
                   celllib::node_capacitance(tech, node.terminal_count,
                                             node.is_output, load),
                   inputs, weights, tech)
                   .power;
    }
    result.per_gate[static_cast<std::size_t>(g)] = total;
    result.gate_power += total;
  }

  // Primary-input nets: their load (fanout pin capacitance + wire) is
  // charged by the external driver; the 1/2 C V^2 D estimate is exact for
  // a net whose density is known. Configuration-independent, but included
  // so model and switch-level totals describe the same circuit.
  for (NetId id : netlist.primary_inputs()) {
    result.pi_load_power +=
        tech.energy_per_transition(netlist.fanout_load(id, tech)) *
        activity.net_stats[static_cast<std::size_t>(id)].density;
  }
  return result;
}

}  // namespace tr::power
