#include "opt/optimizer.hpp"

#include <cmath>
#include <mutex>
#include <optional>
#include <string>

#include "celllib/cell.hpp"
#include "gategraph/gate_graph.hpp"
#include "opt/search.hpp"
#include "power/gate_power.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"

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
using gategraph::GateGraph;
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

  // One node's model power from its precomputed tables.
  const auto node_power = [&](const CatalogNode& node) {
    const double cap =
        celllib::node_capacitance(tech, node.terminal_count,
                                  node.node == GateGraph::output_node,
                                  external_load);
    return power::evaluate_node_tables(node.h, node.g, node.dh.data(),
                                       node.dg.data(), cap, inputs,
                                       scratch.weights, tech)
        .power;
  };

  scratch.powers.clear();
  scratch.powers.reserve(catalog.configs().size());
  for (const CatalogConfig& config : catalog.configs()) {
    double total = 0.0;
    if (model == power::ModelKind::extended) {
      for (const CatalogNode& node : config.nodes) total += node_power(node);
    } else {
      // Output-only ablation: the output node is stored last.
      total += node_power(config.nodes.back());
    }
    scratch.powers.push_back(total);
  }
  return scratch.powers;
}

std::vector<std::pair<GateTopology, double>> score_configurations(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model,
    ScoreScratch& scratch) {
  const ReorderCatalog catalog = ReorderCatalog::build(config);
  const std::vector<double>& powers =
      score_catalog(catalog, inputs, external_load, tech, model, scratch);
  std::vector<std::pair<GateTopology, double>> scored;
  scored.reserve(powers.size());
  for (std::size_t i = 0; i < powers.size(); ++i) {
    scored.emplace_back(catalog.configs()[i].topology, powers[i]);
  }
  return scored;
}

std::vector<std::pair<GateTopology, double>> score_configurations(
    const GateTopology& config, const std::vector<SignalStats>& inputs,
    double external_load, const celllib::Tech& tech, power::ModelKind model) {
  ScoreScratch scratch;
  return score_configurations(config, inputs, external_load, tech, model,
                              scratch);
}

namespace {

/// The unbudgeted gate-parallel engine (catalog + word-parallel kernel):
/// without arrival ceilings every gate's choice is independent.
OptimizeReport optimize_catalog(Netlist& netlist,
                                const std::map<NetId, SignalStats>& pi_stats,
                                const celllib::Tech& tech,
                                const OptimizeOptions& options) {
  netlist.validate();

  // OBTAIN_PROBABILITIES + CALCULATE_DENS as one up-front topological
  // pass: output statistics come from the cell function and are identical
  // for every configuration (Sec. 4.2), so they never depend on any
  // reordering decision.
  const std::vector<SignalStats> net_stats =
      power::propagate_activity(netlist, pi_stats).net_stats;
  const std::vector<GateId> topo_order = netlist.topological_order();

  // Catalog prefetch, serial: the CellLibrary cache makes this one
  // characterisation per distinct cell configuration, shared by all gates.
  const bool cancellable = options.cancel.valid();
  std::vector<std::shared_ptr<const ReorderCatalog>> catalogs(
      static_cast<std::size_t>(netlist.gate_count()));
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    if (cancellable) options.cancel.check("optimize");
    catalogs[static_cast<std::size_t>(g)] = with_error_site("characterize", [&] {
      return netlist.library().catalog(netlist.gate(g).config);
    });
  }

  // FIND_BEST_REORDERING for all gates, concurrently: decisions are
  // independent, each worker writes only its own gate's slot.
  struct GateOutcome {
    GateDecision decision;
    std::size_t chosen = 0;
    int rejected_instance = 0;
  };
  std::vector<GateOutcome> outcomes(
      static_cast<std::size_t>(netlist.gate_count()));
  // Auto-sized runs share one long-lived pool (spawning and joining
  // threads per optimize() call would dominate small netlists); the pool
  // is a single-submitter structure, so concurrent optimize() calls
  // serialise their parallel phases on the guard mutex. An explicit
  // thread count gets a dedicated pool.
  util::ThreadPool* pool = nullptr;
  std::unique_lock<std::mutex> shared_guard;
  std::optional<util::ThreadPool> own_pool;
  if (options.threads == 0) {
    static std::mutex shared_pool_mutex;
    static util::ThreadPool shared_pool(0);
    shared_guard = std::unique_lock<std::mutex>(shared_pool_mutex);
    pool = &shared_pool;
  } else {
    own_pool.emplace(options.threads);
    pool = &*own_pool;
  }
  pool->parallel_for(
      static_cast<std::size_t>(netlist.gate_count()), [&](std::size_t gi) {
        if (cancellable) options.cancel.check("optimize");
        thread_local ScoreScratch scratch;
        thread_local std::vector<SignalStats> inputs;
        const GateId g = static_cast<GateId>(gi);
        inputs.clear();
        for (NetId in : netlist.gate(g).inputs) {
          inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
        }
        const ReorderCatalog& catalog = *catalogs[gi];
        const double load = netlist.external_load(g, tech);
        const std::vector<double>& powers = with_error_site("score", [&]() -> const std::vector<double>& {
          return score_catalog(catalog, inputs, load, tech, options.model,
                               scratch);
        });
        TR_ASSERT(!powers.empty());

        GateOutcome& outcome = outcomes[gi];
        GateDecision& decision = outcome.decision;
        decision.gate = g;
        decision.config_count = static_cast<int>(powers.size());
        decision.original_power = powers.front();  // incoming config first
        decision.best_power = powers.front();
        decision.worst_power = powers.front();
        std::size_t chosen = 0;
        for (std::size_t i = 0; i < powers.size(); ++i) {
          const double p = powers[i];
          if (p < decision.best_power) decision.best_power = p;
          if (p > decision.worst_power) decision.worst_power = p;
          if (options.restrict_to_instance &&
              !catalog.configs()[i].same_instance_as_first) {
            ++outcome.rejected_instance;
            continue;
          }
          const bool better = options.objective == Objective::minimize_power
                                  ? p < powers[chosen]
                                  : p > powers[chosen];
          if (better) chosen = i;
        }
        decision.chosen_power = powers[chosen];
        decision.changed = chosen != 0;
        outcome.chosen = chosen;
      });

  // Last cancellation point: past here the netlist is mutated, so the
  // commit runs to completion and the result is the full deterministic
  // report (all-or-nothing without needing a snapshot on this engine).
  if (cancellable) options.cancel.check("optimize");

  // UPDATE_CIRCUIT_INFORMATION: commit and assemble deterministically in
  // GateId order; power totals accumulate in topological order, the
  // summation order of the budgeted walk's commit (opt/search.cpp).
  OptimizeReport report;
  report.threads_used = pool->thread_count();
  report.decisions.resize(static_cast<std::size_t>(netlist.gate_count()));
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    const GateOutcome& outcome = outcomes[static_cast<std::size_t>(g)];
    report.decisions[static_cast<std::size_t>(g)] = outcome.decision;
    report.configs_rejected_by_instance += outcome.rejected_instance;
    if (outcome.decision.changed) {
      netlist.set_config(
          g, catalogs[static_cast<std::size_t>(g)]->configs()[outcome.chosen]
                 .topology);
      ++report.gates_changed;
    }
  }
  for (GateId g : topo_order) {
    report.model_power_before +=
        report.decisions[static_cast<std::size_t>(g)].original_power;
    report.model_power_after +=
        report.decisions[static_cast<std::size_t>(g)].chosen_power;
  }
  return report;
}

}  // namespace

OptimizeReport optimize(Netlist& netlist,
                        const std::map<NetId, SignalStats>& pi_stats,
                        const celllib::Tech& tech,
                        const OptimizeOptions& options) {
  return with_error_site("optimize", [&] {
    // Arrival budgeting couples a gate's admissible set to its fan-in
    // gates' committed configurations: one sequential walk over the
    // precomputed tables.
    if (options.max_circuit_delay_increase) {
      const double budget = *options.max_circuit_delay_increase;
      require(std::isfinite(budget) && budget >= 0.0,
              "optimize: max_circuit_delay_increase must be finite and >= 0");
      return search::greedy_optimize(netlist, pi_stats, tech, options);
    }
    return optimize_catalog(netlist, pi_stats, tech, options);
  });
}

}  // namespace tr::opt
