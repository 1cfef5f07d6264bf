#include "delay/elmore.hpp"

#include <algorithm>

#include "celllib/catalog.hpp"
#include "util/error.hpp"

namespace tr::delay {

using gategraph::DeviceType;
using gategraph::GateGraph;
using gategraph::Transistor;

namespace {

/// RC-ladder step response factor (time to 50% swing of exp settling).
constexpr double k_elmore_to_delay = 0.69;

/// Walks every simple path from the output node to `rail` and updates
/// `pin_delay` with the Elmore time constant seen by each device on the
/// path (as the last-arriving input).
void analyse_network(const GateGraph& graph,
                     const std::vector<double>& node_caps, int rail,
                     const celllib::Tech& tech,
                     std::vector<double>& pin_delay) {
  // Adjacency over transistor indices.
  const auto& transistors = graph.transistors();
  std::vector<std::vector<int>> adjacency(
      static_cast<std::size_t>(graph.node_count()));
  for (std::size_t t = 0; t < transistors.size(); ++t) {
    adjacency[static_cast<std::size_t>(transistors[t].node_out)].push_back(
        static_cast<int>(t));
    adjacency[static_cast<std::size_t>(transistors[t].node_rail)].push_back(
        static_cast<int>(t));
  }

  std::vector<bool> visited(static_cast<std::size_t>(graph.node_count()));
  std::vector<int> path;  // transistor indices, output side first

  // Scores one complete path y = n_0 -[d_0]- n_1 -[d_1]- ... -[d_{k-1}]- rail
  // (`devices[i]` = d_i, `nodes_above[i]` = n_i). When device d_m switches
  // last, the charge still to move sits on nodes n_0..n_m (nodes below d_m
  // are pre-discharged); node n_j drains through devices d_j..d_{k-1}.
  auto score_path = [&](const std::vector<int>& devices,
                        const std::vector<int>& nodes_above) {
    const std::size_t k = devices.size();
    for (std::size_t m = 0; m < k; ++m) {
      double tau = 0.0;
      for (std::size_t j = 0; j <= m; ++j) {
        double resistance = 0.0;
        for (std::size_t i = j; i < k; ++i) {
          const Transistor& t =
              transistors[static_cast<std::size_t>(devices[i])];
          resistance += t.type == DeviceType::nmos ? tech.r_n : tech.r_p;
        }
        tau += node_caps[static_cast<std::size_t>(nodes_above[j])] * resistance;
      }
      const int pin = transistors[static_cast<std::size_t>(devices[m])].input;
      pin_delay[static_cast<std::size_t>(pin)] =
          std::max(pin_delay[static_cast<std::size_t>(pin)],
                   k_elmore_to_delay * tau);
    }
  };

  std::vector<int> nodes_above;  // node above device at same index in path
  auto dfs = [&](auto&& self, int v) -> void {
    visited[static_cast<std::size_t>(v)] = true;
    for (int t : adjacency[static_cast<std::size_t>(v)]) {
      const Transistor& tx = transistors[static_cast<std::size_t>(t)];
      const int next = tx.node_out == v ? tx.node_rail : tx.node_out;
      if (visited[static_cast<std::size_t>(next)]) continue;
      if (next != rail &&
          (next == GateGraph::vss_node || next == GateGraph::vdd_node)) {
        continue;
      }
      path.push_back(t);
      nodes_above.push_back(v);
      if (next == rail) {
        score_path(path, nodes_above);
      } else {
        self(self, next);
      }
      path.pop_back();
      nodes_above.pop_back();
    }
    visited[static_cast<std::size_t>(v)] = false;
  };
  dfs(dfs, GateGraph::output_node);
}

}  // namespace

GateDelays gate_delays(const GateGraph& graph,
                       const std::vector<double>& node_caps,
                       const celllib::Tech& tech) {
  require(static_cast<int>(node_caps.size()) == graph.node_count(),
          "gate_delays: node capacitance arity mismatch");
  GateDelays result;
  result.pin_delay.assign(static_cast<std::size_t>(graph.input_count()), 0.0);
  analyse_network(graph, node_caps, GateGraph::vss_node, tech,
                  result.pin_delay);
  analyse_network(graph, node_caps, GateGraph::vdd_node, tech,
                  result.pin_delay);
  for (double d : result.pin_delay) result.worst = std::max(result.worst, d);
  return result;
}

double output_arrival(const netlist::GateInst& gate,
                      const std::vector<double>& net_arrival,
                      std::span<const double> pin_delay) {
  double arrival = 0.0;
  for (std::size_t pin = 0; pin < gate.inputs.size(); ++pin) {
    arrival = std::max(
        arrival,
        net_arrival[static_cast<std::size_t>(gate.inputs[pin])] +
            pin_delay[pin]);
  }
  return arrival;
}

double critical_path(const netlist::Netlist& netlist,
                     const std::vector<double>& net_arrival) {
  double path = 0.0;
  for (netlist::NetId id : netlist.primary_outputs()) {
    path = std::max(path, net_arrival[static_cast<std::size_t>(id)]);
  }
  return path;
}

CircuitDelay circuit_delay(const netlist::Netlist& netlist,
                           const celllib::Tech& tech) {
  CircuitDelay result;
  result.net_arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);

  for (netlist::GateId g : netlist.topological_order()) {
    const netlist::GateInst& inst = netlist.gate(g);
    const auto slot = netlist.library().catalog_slot(inst.config);
    result.net_arrival[static_cast<std::size_t>(inst.output)] = output_arrival(
        inst, result.net_arrival,
        slot.catalog->pin_delays(tech, netlist.external_load(g, tech))
            .pins(slot.index));
  }
  result.critical_path = critical_path(netlist, result.net_arrival);
  return result;
}

}  // namespace tr::delay
