#include "opt/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "opt/search.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"

namespace tr::opt {

const char* objective_name(Objective objective) noexcept {
  return objective == Objective::minimize_power ? "minimize" : "maximize";
}

const char* model_name(power::ModelKind model) noexcept {
  return model == power::ModelKind::extended ? "extended" : "output_only";
}

namespace {

/// Whichever of the two values of an enum `spell` names `name`.
template <class E>
E from_name(std::string_view name, const char* what, E a, E b,
            const char* (*spell)(E)) {
  if (name != spell(a) && name != spell(b)) {
    throw Error("unknown " + std::string(what) + " '" + std::string(name) +
                    "' (expected " + spell(a) + "|" + spell(b) + ")",
                ErrorCode::invalid_argument);
  }
  return name == spell(a) ? a : b;
}

}  // namespace

Objective objective_from_name(std::string_view name) {
  return from_name(name, "objective", Objective::minimize_power,
                   Objective::maximize_power, objective_name);
}

power::ModelKind model_from_name(std::string_view name) {
  return from_name(name, "model", power::ModelKind::extended,
                   power::ModelKind::output_only, model_name);
}

using boolfn::SignalStats;
using celllib::CatalogConfig;
using celllib::CatalogNode;
using celllib::ReorderCatalog;
using gategraph::GateTopology;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

const std::vector<double>& score_catalog(const ReorderCatalog& catalog,
                                         const std::vector<SignalStats>& inputs,
                                         double external_load,
                                         const celllib::Tech& tech,
                                         power::ModelKind model,
                                         ScoreScratch& scratch) {
  if (util::fault::enabled()) util::fault::check("opt.score");
  require(static_cast<int>(inputs.size()) == catalog.input_count(),
          "score_catalog: input statistics arity mismatch");
  scratch.probs.clear();
  scratch.probs.reserve(inputs.size());
  for (const SignalStats& s : inputs) scratch.probs.push_back(s.prob);
  scratch.weights.assign(scratch.probs);

  // Step 1: each distinct node's model power, once (the output-only
  // ablation reads output nodes only).
  const bool extended = model == power::ModelKind::extended;
  scratch.node_powers.clear();
  for (const CatalogNode& node : catalog.nodes()) {
    if (!extended && !node.is_output) {
      scratch.node_powers.push_back(0.0);
      continue;
    }
    const double cap = celllib::node_capacitance(
        tech, node.terminal_count, node.is_output, external_load);
    scratch.node_powers.push_back(
        power::evaluate_node_tables(node.h, node.g, node.dh.data(),
                                    node.dg.data(), cap, inputs,
                                    scratch.weights, tech)
            .power);
  }

  // Step 2: per configuration, the node powers summed in model node order.
  scratch.powers.clear();
  for (const CatalogConfig& config : catalog.configs()) {
    double total = 0.0;
    if (extended) {
      for (int node : config.nodes) {
        total += scratch.node_powers[static_cast<std::size_t>(node)];
      }
    } else {
      // Output-only ablation: the output node is stored last.
      total += scratch.node_powers[static_cast<std::size_t>(
          config.nodes.back())];
    }
    scratch.powers.push_back(total);
  }
  return scratch.powers;
}

std::vector<std::pair<GateTopology, double>> score_configurations(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model) {
  const ReorderCatalog catalog = ReorderCatalog::build(config);
  ScoreScratch scratch;
  const std::vector<double>& powers =
      score_catalog(catalog, inputs, external_load, tech, model, scratch);
  std::vector<std::pair<GateTopology, double>> scored;
  scored.reserve(powers.size());
  for (std::size_t i = 0; i < powers.size(); ++i) {
    scored.emplace_back(catalog.configs()[i].topology, powers[i]);
  }
  return scored;
}

OptimizeReport optimize(Netlist& netlist,
                        const std::map<NetId, SignalStats>& pi_stats,
                        const celllib::Tech& tech,
                        const OptimizeOptions& options) {
  return with_error_site("optimize", [&] {
    if (options.max_circuit_delay_increase) {
      const double budget = *options.max_circuit_delay_increase;
      require(std::isfinite(budget) && budget >= 0.0,
              "optimize: max_circuit_delay_increase must be finite and >= 0");
    }
    // FIND_BEST_REORDERING: score every configuration of every gate,
    // then one greedy walk picks per gate.
    const search::IncrementalScorer scorer(netlist, pi_stats, tech,
                                           options.model, options.cancel,
                                           options.threads);
    const search::GreedySeed seed = search::greedy_seed(scorer, options);
    OptimizeReport report;
    report.critical_path_before =
        delay::critical_path(netlist, search::arrivals(scorer));
    report.critical_path_after =
        delay::critical_path(netlist, search::arrivals(scorer, seed.configs));
    // Last cancellation point: past here the netlist is mutated, so the
    // commit runs to completion (all-or-nothing without a snapshot).
    if (options.cancel.valid()) options.cancel.check("optimize");

    // UPDATE_CIRCUIT_INFORMATION: commit and assemble deterministically
    // in GateId order; power totals accumulate in topological order.
    report.threads_used = scorer.threads_used();
    report.configs_rejected_by_delay = seed.rejected_delay;
    report.configs_rejected_by_instance = seed.rejected_instance;
    report.decisions.resize(static_cast<std::size_t>(scorer.gate_count()));
    for (GateId g = 0; g < scorer.gate_count(); ++g) {
      const search::GateTable& table = scorer.table(g);
      const auto chosen =
          static_cast<std::size_t>(seed.configs[static_cast<std::size_t>(g)]);
      GateDecision& decision = report.decisions[static_cast<std::size_t>(g)];
      decision.gate = g;
      decision.config_count = table.config_count();
      decision.original_power = table.power.front();
      decision.best_power =
          *std::min_element(table.power.begin(), table.power.end());
      decision.worst_power =
          *std::max_element(table.power.begin(), table.power.end());
      decision.chosen_power = table.power[chosen];
      decision.changed = chosen != 0;
      if (decision.changed) {
        netlist.set_config(g, table.catalog->configs()[chosen].topology);
        ++report.gates_changed;
      }
    }
    for (GateId g : scorer.topo_order()) {
      report.model_power_before +=
          report.decisions[static_cast<std::size_t>(g)].original_power;
      report.model_power_after +=
          report.decisions[static_cast<std::size_t>(g)].chosen_power;
    }
    return report;
  });
}

}  // namespace tr::opt
