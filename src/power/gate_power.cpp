#include "power/gate_power.hpp"

#include "util/error.hpp"

namespace tr::power {

using boolfn::SignalStats;
using boolfn::TruthTable;
using gategraph::GateGraph;

NodePower evaluate_node_tables(const TruthTable& h, const TruthTable& g,
                               const TruthTable* dh, const TruthTable* dg,
                               double cap,
                               const std::vector<SignalStats>& inputs,
                               const boolfn::MintermWeights& weights,
                               const celllib::Tech& tech) {
  const double ph = weights.sum(h);
  const double pg = weights.sum(g);

  NodePower result;
  result.capacitance = cap;
  const double denom = ph + pg;
  if (denom <= 0.0) {
    // The node is never driven under these input statistics (possible when
    // some input probability is exactly 0 or 1): it floats and never
    // switches.
    result.prob = 0.0;
    result.density = 0.0;
    result.power = 0.0;
    return result;
  }
  result.prob = ph / denom;

  double transitions = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double di = inputs[i].density;
    if (di == 0.0) continue;
    const double charge_sensitivity = weights.sum(dh[i]);
    const double discharge_sensitivity = weights.sum(dg[i]);
    transitions += di * (charge_sensitivity * (1.0 - result.prob) +
                         discharge_sensitivity * result.prob);
  }
  result.density = transitions;
  result.power = tech.energy_per_transition(cap) * transitions;
  return result;
}

GatePower evaluate_gate_power(const GateGraph& graph,
                              const std::vector<double>& node_caps,
                              const std::vector<SignalStats>& inputs,
                              const celllib::Tech& tech) {
  require(static_cast<int>(inputs.size()) == graph.input_count(),
          "evaluate_gate_power: input statistics arity mismatch");
  require(static_cast<int>(node_caps.size()) == graph.node_count(),
          "evaluate_gate_power: node capacitance arity mismatch");
  std::vector<double> probs;
  for (const SignalStats& s : inputs) probs.push_back(s.prob);
  const boolfn::MintermWeights weights(probs);

  // Model node order: internal nodes ascending, then the output node.
  GatePower result;
  const int internal = graph.internal_node_count();
  for (int k = 0; k <= internal; ++k) {
    const int node = k < internal ? GateGraph::first_internal_node + k
                                  : GateGraph::output_node;
    const TruthTable h = graph.h_function(node);
    const TruthTable g = graph.g_function(node);
    TR_ASSERT((h & g).is_zero());  // no rail-to-rail short
    std::vector<TruthTable> dh;
    std::vector<TruthTable> dg;
    for (int i = 0; i < graph.input_count(); ++i) {
      dh.push_back(h.boolean_difference(i));
      dg.push_back(g.boolean_difference(i));
    }
    result.nodes.push_back(evaluate_node_tables(
        h, g, dh.data(), dg.data(), node_caps[static_cast<std::size_t>(node)],
        inputs, weights, tech));
    result.nodes.back().node = node;
  }
  for (const NodePower& n : result.nodes) result.total_power += n.power;
  const NodePower& out = result.nodes.back();
  result.output = SignalStats{out.prob, out.density};
  return result;
}

}  // namespace tr::power
