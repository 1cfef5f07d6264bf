#include "opt/search.hpp"

#include <algorithm>
#include <utility>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "util/error.hpp"

namespace tr::opt::search {

using boolfn::SignalStats;
using celllib::ReorderCatalog;
using gategraph::GateGraph;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Admissibility slop of the per-net arrival budgets.
constexpr double k_budget_epsilon = 1e-18;

}  // namespace

IncrementalScorer::IncrementalScorer(
    const Netlist& netlist, const std::map<NetId, SignalStats>& pi_stats,
    const celllib::Tech& tech, power::ModelKind model,
    const util::CancellationToken& cancel)
    : netlist_(&netlist) {
  netlist.validate();

  // Signal statistics are configuration-invariant (paper Sec. 4.2): one
  // topological pass fixes every gate's input statistics for good.
  const std::vector<SignalStats> net_stats =
      power::propagate_activity(netlist, pi_stats).net_stats;

  topo_order_ = netlist.topological_order();

  // Per-gate tables. Powers go through the word-parallel catalog scorer;
  // pin delays go through the very delay::gate_delays code path static
  // timing runs, memoised per (catalog, external load) — gates sharing a
  // cell configuration and load share one delay table.
  tables_.resize(static_cast<std::size_t>(netlist.gate_count()));
  std::map<std::pair<const ReorderCatalog*, double>,
           std::shared_ptr<const std::vector<std::vector<double>>>>
      delay_cache;
  ScoreScratch scratch;
  std::vector<SignalStats> inputs;
  const bool cancellable = cancel.valid();
  for (GateId g : topo_order_) {
    if (cancellable) cancel.check("optimize");
    const netlist::GateInst& inst = netlist.gate(g);
    inputs.clear();
    for (NetId in : inst.inputs) {
      inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
    }

    GateTable& table = tables_[static_cast<std::size_t>(g)];
    table.catalog = with_error_site("characterize", [&] {
      return netlist.library().catalog(inst.config);
    });
    const double load = netlist.external_load(g, tech);
    table.power = with_error_site("score", [&] {
      return score_catalog(*table.catalog, inputs, load, tech, model, scratch);
    });

    const auto key = std::make_pair(table.catalog.get(), load);
    auto cached = delay_cache.find(key);
    if (cached == delay_cache.end()) {
      auto delays = std::make_shared<std::vector<std::vector<double>>>();
      delays->reserve(table.catalog->configs().size());
      for (const celllib::CatalogConfig& config : table.catalog->configs()) {
        const GateGraph graph(config.topology);
        const std::vector<double> caps =
            celllib::node_capacitances(graph, tech, load);
        delays->push_back(delay::gate_delays(graph, caps, tech).pin_delay);
      }
      cached = delay_cache.emplace(key, std::move(delays)).first;
    }
    table.pin_delay = cached->second;
  }

  // The exact circuit_delay recurrence: arrival = max over pins of
  // (input arrival + pin delay), starting from 0.0, in pin order.
  arrival_.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  for (GateId g : topo_order_) {
    const netlist::GateInst& inst = netlist.gate(g);
    const std::vector<double>& pd =
        tables_[static_cast<std::size_t>(g)].pin_delay->front();
    double arrival = 0.0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      arrival = std::max(
          arrival, arrival_[static_cast<std::size_t>(inst.inputs[pin])] +
                       pd[pin]);
    }
    arrival_[static_cast<std::size_t>(inst.output)] = arrival;
  }
}

GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options) {
  const Netlist& netlist = scorer.netlist();
  GreedySeed seed;
  seed.configs.assign(static_cast<std::size_t>(scorer.gate_count()), 0);

  // Arrival budgeting (paper conclusion (b)): per-net ceilings of
  // (1 + f) x the original arrival (the scorer's arrivals are those of
  // the incoming netlist) against the running arrivals of the partially
  // committed netlist.
  const bool budget_delay = options.max_circuit_delay_increase.has_value();
  std::vector<double> arrival_budget;
  std::vector<double> arrival;
  if (budget_delay) {
    const std::vector<double>& original = scorer.arrivals();
    arrival_budget.resize(original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      arrival_budget[i] =
          original[i] * (1.0 + *options.max_circuit_delay_increase);
    }
    arrival.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  }

  for (GateId g : scorer.topo_order()) {
    const GateTable& table = scorer.table(g);
    const netlist::GateInst& inst = netlist.gate(g);
    const std::size_t n = table.power.size();

    std::vector<bool> admissible(n, true);
    if (options.restrict_to_instance) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!table.same_instance(static_cast<int>(i))) {
          admissible[i] = false;
          ++seed.rejected_instance;
        }
      }
    }
    std::vector<double> candidate_arrival(n, 0.0);
    if (budget_delay) {
      const double budget =
          arrival_budget[static_cast<std::size_t>(inst.output)];
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<double>& pd = (*table.pin_delay)[i];
        double out = 0.0;
        for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
          out = std::max(
              out, arrival[static_cast<std::size_t>(inst.inputs[pin])] +
                       pd[pin]);
        }
        candidate_arrival[i] = out;
        if (i > 0 && out > budget + k_budget_epsilon) {
          admissible[i] = false;
          ++seed.rejected_delay;
        }
      }
      // The incoming configuration always fits: its pin delays are the
      // original ones and its input arrivals are within their budgets.
      TR_ASSERT(candidate_arrival[0] <= budget + 1e-15);
    }

    std::size_t chosen = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!admissible[i]) continue;
      const bool better = options.objective == Objective::minimize_power
                              ? table.power[i] < table.power[chosen]
                              : table.power[i] > table.power[chosen];
      if (better) chosen = i;
    }
    seed.configs[static_cast<std::size_t>(g)] = static_cast<int>(chosen);
    if (budget_delay) {
      arrival[static_cast<std::size_t>(inst.output)] =
          candidate_arrival[chosen];
    }
  }
  return seed;
}

OptimizeReport greedy_optimize(Netlist& netlist,
                               const std::map<NetId, SignalStats>& pi_stats,
                               const celllib::Tech& tech,
                               const OptimizeOptions& options) {
  const IncrementalScorer scorer(netlist, pi_stats, tech, options.model,
                                 options.cancel);
  const GreedySeed seed = greedy_seed(scorer, options);
  // Last cancellation point: past here the netlist is mutated.
  if (options.cancel.valid()) options.cancel.check("optimize");

  // Commit: decisions in GateId order, power totals accumulated in
  // topological order.
  OptimizeReport report;
  report.threads_used = 1;
  report.configs_rejected_by_delay = seed.rejected_delay;
  report.configs_rejected_by_instance = seed.rejected_instance;
  report.decisions.resize(static_cast<std::size_t>(scorer.gate_count()));
  for (GateId g = 0; g < scorer.gate_count(); ++g) {
    const GateTable& table = scorer.table(g);
    GateDecision decision;
    decision.gate = g;
    decision.config_count = table.config_count();
    decision.original_power = table.power.front();
    decision.best_power = table.power.front();
    decision.worst_power = table.power.front();
    for (const double p : table.power) {
      if (p < decision.best_power) decision.best_power = p;
      if (p > decision.worst_power) decision.worst_power = p;
    }
    const int cfg = seed.configs[static_cast<std::size_t>(g)];
    decision.chosen_power = table.power[static_cast<std::size_t>(cfg)];
    decision.changed = cfg != 0;
    if (decision.changed) {
      netlist.set_config(
          g, table.catalog->configs()[static_cast<std::size_t>(cfg)].topology);
      ++report.gates_changed;
    }
    report.decisions[static_cast<std::size_t>(g)] = decision;
  }
  for (GateId g : scorer.topo_order()) {
    report.model_power_before +=
        report.decisions[static_cast<std::size_t>(g)].original_power;
    report.model_power_after +=
        report.decisions[static_cast<std::size_t>(g)].chosen_power;
  }
  return report;
}

}  // namespace tr::opt::search
