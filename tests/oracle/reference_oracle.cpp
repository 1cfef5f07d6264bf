#include "oracle/reference_oracle.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "oracle/graph_walk.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"

namespace tr::oracle {

using boolfn::SignalStats;
using gategraph::GateGraph;
using gategraph::GateTopology;
using gategraph::SpNode;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;
using opt::GateDecision;
using opt::Objective;
using opt::OptimizeOptions;
using opt::OptimizeReport;

std::vector<SpNode> enumerate_orderings_brute(const SpNode& node) {
  if (node.is_leaf()) return {node};

  // Orderings of each child, independently.
  std::vector<std::vector<SpNode>> child_orderings;
  child_orderings.reserve(node.children.size());
  for (const SpNode& c : node.children) {
    child_orderings.push_back(enumerate_orderings_brute(c));
  }

  // Cartesian product over child choices.
  std::vector<std::vector<SpNode>> combos{{}};
  for (const auto& options : child_orderings) {
    std::vector<std::vector<SpNode>> next;
    next.reserve(combos.size() * options.size());
    for (const auto& prefix : combos) {
      for (const SpNode& option : options) {
        std::vector<SpNode> extended = prefix;
        extended.push_back(option);
        next.push_back(std::move(extended));
      }
    }
    combos = std::move(next);
  }

  std::vector<SpNode> results;
  if (node.kind == SpNode::Kind::parallel) {
    results.reserve(combos.size());
    for (auto& combo : combos) {
      SpNode n;
      n.kind = node.kind;
      n.children = std::move(combo);
      results.push_back(std::move(n));
    }
    return results;
  }

  // Series: additionally permute the child order.
  for (auto& combo : combos) {
    std::vector<std::size_t> perm(combo.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    do {
      SpNode n;
      n.kind = SpNode::Kind::series;
      n.children.reserve(combo.size());
      for (std::size_t i : perm) n.children.push_back(combo[i]);
      results.push_back(std::move(n));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  return results;
}

std::vector<GateTopology> all_reorderings_brute(const GateTopology& gate) {
  std::vector<GateTopology> out;
  std::set<std::string> seen;
  for (const SpNode& n : enumerate_orderings_brute(gate.nmos())) {
    for (const SpNode& p : enumerate_orderings_brute(gate.pmos())) {
      GateTopology config(n, p, gate.input_count());
      if (seen.insert(config.canonical_key()).second) {
        out.push_back(std::move(config));
      }
    }
  }
  return out;
}

std::vector<std::pair<GateTopology, double>> score_configurations_reference(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model) {
  std::vector<std::pair<GateTopology, double>> scored;
  for (GateTopology& candidate : config.all_reorderings()) {
    const GateGraph graph(candidate);
    const std::vector<double> caps =
        celllib::node_capacitances(graph, tech, external_load);
    const power::GatePower gp =
        model == power::ModelKind::extended
            ? power::evaluate_gate_power(graph, caps, inputs, tech)
            : evaluate_output_only_power(graph, caps, inputs, tech);
    scored.emplace_back(std::move(candidate), gp.total_power);
  }
  return scored;
}

OptimizeReport optimize_reference(Netlist& netlist,
                                  const std::map<NetId, SignalStats>& pi_stats,
                                  const celllib::Tech& tech,
                                  const OptimizeOptions& options) {
  netlist.validate();

  // OBTAIN_PROBABILITIES: net statistics, filled during the traversal.
  std::vector<SignalStats> net_stats(
      static_cast<std::size_t>(netlist.net_count()), SignalStats{0.5, 0.0});
  for (NetId id : netlist.primary_inputs()) {
    const auto it = pi_stats.find(id);
    require(it != pi_stats.end(),
            "optimize_reference: missing statistics for primary input '",
            netlist.net(id).name, "'");
    net_stats[static_cast<std::size_t>(id)] = it->second;
  }

  OptimizeReport report;
  report.threads_used = 1;  // the traversal is inherently sequential
  report.critical_path_before = circuit_delay_walk(netlist, tech).critical_path;
  report.decisions.resize(static_cast<std::size_t>(netlist.gate_count()));

  // Arrival budgeting (conclusion (b)): per-net arrival ceilings from the
  // incoming mapping, and the running arrivals of the optimized netlist.
  const bool budget_delay = options.max_circuit_delay_increase.has_value();
  std::vector<double> arrival_budget;
  std::vector<double> arrival;
  if (budget_delay) {
    const delay::CircuitDelay timing = circuit_delay_walk(netlist, tech);
    arrival_budget.resize(timing.net_arrival.size());
    for (std::size_t i = 0; i < timing.net_arrival.size(); ++i) {
      arrival_budget[i] =
          timing.net_arrival[i] * (1.0 + *options.max_circuit_delay_increase);
    }
    arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  }

  // DEPTH_FIRST_TRAVERSE: every gate after its transitive fan-in.
  const bool cancellable = options.cancel.valid();
  for (GateId g : netlist.topological_order()) {
    if (cancellable) options.cancel.check("optimize");
    const netlist::GateInst& inst = netlist.gate(g);

    // OBTAIN_PROB_AND_DENS.
    std::vector<SignalStats> inputs;
    inputs.reserve(inst.inputs.size());
    for (NetId in : inst.inputs) {
      inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
    }

    // FIND_BEST_REORDERING: exhaustive exploration (Fig. 4) + model.
    const double load = netlist.external_load(g, tech);
    const auto scored = score_configurations_reference(inst.config, inputs,
                                                       load, tech,
                                                       options.model);
    TR_ASSERT(!scored.empty());

    // Admissibility filters (paper conclusions (a) and (b)).
    std::vector<bool> admissible(scored.size(), true);
    if (options.restrict_to_instance) {
      const std::string instance = inst.config.instance_key();
      for (std::size_t i = 0; i < scored.size(); ++i) {
        if (scored[i].first.instance_key() != instance) {
          admissible[i] = false;
          ++report.configs_rejected_by_instance;
        }
      }
    }
    std::vector<double> candidate_arrival(scored.size(), 0.0);
    if (budget_delay) {
      const auto arrival_of = [&](const GateTopology& config) {
        const GateGraph graph(config);
        const auto caps = celllib::node_capacitances(graph, tech, load);
        const delay::GateDelays delays = delay::gate_delays(graph, caps, tech);
        double out = 0.0;
        for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
          out = std::max(
              out, arrival[static_cast<std::size_t>(inst.inputs[pin])] +
                       delays.pin_delay[pin]);
        }
        return out;
      };
      const double budget =
          arrival_budget[static_cast<std::size_t>(inst.output)];
      for (std::size_t i = 0; i < scored.size(); ++i) {
        candidate_arrival[i] = arrival_of(scored[i].first);
        // The incoming configuration (i == 0) always fits the budget (its
        // pin delays are the original ones and input arrivals are within
        // their own budgets), so the fallback is always available.
        if (i > 0 && candidate_arrival[i] > budget + 1e-18) {
          admissible[i] = false;
          ++report.configs_rejected_by_delay;
        }
      }
      TR_ASSERT(candidate_arrival[0] <= budget + 1e-15);
    }

    GateDecision decision;
    decision.gate = g;
    decision.config_count = static_cast<int>(scored.size());
    decision.original_power = scored.front().second;  // incoming config first
    decision.best_power = scored.front().second;
    decision.worst_power = scored.front().second;
    std::size_t chosen = 0;
    for (std::size_t i = 0; i < scored.size(); ++i) {
      const double p = scored[i].second;
      if (p < decision.best_power) decision.best_power = p;
      if (p > decision.worst_power) decision.worst_power = p;
      if (!admissible[i]) continue;
      const bool better = options.objective == Objective::minimize_power
                              ? p < scored[chosen].second
                              : p > scored[chosen].second;
      if (better) chosen = i;
    }
    decision.chosen_power = scored[chosen].second;
    decision.changed = chosen != 0;
    if (decision.changed) {
      netlist.set_config(g, scored[chosen].first);
      ++report.gates_changed;
    }
    if (budget_delay) {
      arrival[static_cast<std::size_t>(inst.output)] =
          candidate_arrival[chosen];
    }
    report.model_power_before += decision.original_power;
    report.model_power_after += decision.chosen_power;
    report.decisions[static_cast<std::size_t>(g)] = decision;

    // CALCULATE_DENS + UPDATE_CIRCUIT_INFORMATION: output statistics from
    // the cell function — identical for every configuration (Sec. 4.2).
    const boolfn::TruthTable f =
        netlist.library().cell(inst.cell).function();
    net_stats[static_cast<std::size_t>(inst.output)] =
        boolfn::propagate(f, inputs);
  }
  report.critical_path_after = circuit_delay_walk(netlist, tech).critical_path;
  return report;
}

}  // namespace tr::oracle
