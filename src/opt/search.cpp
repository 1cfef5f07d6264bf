#include "opt/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "celllib/cell.hpp"
#include "delay/elmore.hpp"
#include "gategraph/gate_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::opt::search {

using boolfn::SignalStats;
using celllib::ReorderCatalog;
using gategraph::GateGraph;
using netlist::GateId;
using netlist::NetId;
using netlist::Netlist;

namespace {

/// Admissibility slop of the arrival ceilings — the same epsilon for the
/// greedy walk's per-net budgets and the annealer's per-output ceilings,
/// so "feasible" means the same thing in both.
constexpr double k_budget_epsilon = 1e-18;

constexpr double k_inf = std::numeric_limits<double>::infinity();

/// The sequential engines' shared commit: writes `configs` into
/// `netlist` and assembles the report — decisions in GateId order, power
/// totals accumulated in topological order, the walk's rejection
/// counters.
OptimizeReport commit_configs(Netlist& netlist,
                              const IncrementalScorer& scorer,
                              const std::vector<int>& configs,
                              const GreedySeed& seed) {
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
    const int cfg = configs[static_cast<std::size_t>(g)];
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
  topo_rank_.assign(static_cast<std::size_t>(netlist.gate_count()), 0);
  for (std::size_t i = 0; i < topo_order_.size(); ++i) {
    topo_rank_[static_cast<std::size_t>(topo_order_[i])] = static_cast<int>(i);
  }

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

  config_.assign(static_cast<std::size_t>(netlist.gate_count()), 0);
  arrival_.assign(static_cast<std::size_t>(netlist.net_count()), 0.0);
  po_ceiling_.assign(static_cast<std::size_t>(netlist.net_count()), k_inf);
  queued_.assign(static_cast<std::size_t>(netlist.gate_count()), 0);
  recompute_state();
}

void IncrementalScorer::recompute_state() {
  // The exact circuit_delay recurrence: arrival = max over pins of
  // (input arrival + pin delay), starting from 0.0, in pin order.
  std::fill(arrival_.begin(), arrival_.end(), 0.0);
  total_power_ = 0.0;
  for (GateId g : topo_order_) {
    const netlist::GateInst& inst = netlist_->gate(g);
    const GateTable& table = tables_[static_cast<std::size_t>(g)];
    const int cfg = config_[static_cast<std::size_t>(g)];
    const std::vector<double>& pd =
        (*table.pin_delay)[static_cast<std::size_t>(cfg)];
    double arrival = 0.0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      arrival = std::max(
          arrival, arrival_[static_cast<std::size_t>(inst.inputs[pin])] +
                       pd[pin]);
    }
    arrival_[static_cast<std::size_t>(inst.output)] = arrival;
    total_power_ += table.power[static_cast<std::size_t>(cfg)];
  }
  po_violations_ = 0;
  if (has_ceilings_) {
    for (NetId id : netlist_->primary_outputs()) {
      if (arrival_[static_cast<std::size_t>(id)] >
          po_ceiling_[static_cast<std::size_t>(id)] + k_budget_epsilon) {
        ++po_violations_;
      }
    }
  }
}

double IncrementalScorer::total_power_in_topo_order() const {
  double total = 0.0;
  for (GateId g : topo_order_) {
    total += tables_[static_cast<std::size_t>(g)]
                 .power[static_cast<std::size_t>(
                     config_[static_cast<std::size_t>(g)])];
  }
  return total;
}

void IncrementalScorer::set_delay_budget(double fraction) {
  require(std::isfinite(fraction) && fraction >= 0.0,
          "search: delay budget must be finite and >= 0");
  for (NetId id : netlist_->primary_outputs()) {
    po_ceiling_[static_cast<std::size_t>(id)] =
        arrival_[static_cast<std::size_t>(id)] * (1.0 + fraction);
  }
  has_ceilings_ = true;
  po_violations_ = 0;
  for (NetId id : netlist_->primary_outputs()) {
    if (arrival_[static_cast<std::size_t>(id)] >
        po_ceiling_[static_cast<std::size_t>(id)] + k_budget_epsilon) {
      ++po_violations_;
    }
  }
}

IncrementalScorer::Undo IncrementalScorer::apply(GateId g, int config) {
  Undo undo;
  undo.gate = g;
  undo.old_config = config_[static_cast<std::size_t>(g)];
  undo.old_total_power = total_power_;
  undo.old_po_violations = po_violations_;

  const GateTable& moved = tables_[static_cast<std::size_t>(g)];
  total_power_ += moved.power[static_cast<std::size_t>(config)] -
                  moved.power[static_cast<std::size_t>(undo.old_config)];
  config_[static_cast<std::size_t>(g)] = config;

  // Fanout-cone arrival propagation: a min-rank worklist pops each gate
  // at most once (a gate's fan-in drivers all have strictly lower rank,
  // so by the time it pops, its inputs are final) and stops wherever the
  // recomputed arrival is bit-identical to the stored one.
  const auto by_rank_greater = [](const std::pair<int, GateId>& a,
                                  const std::pair<int, GateId>& b) {
    return a > b;
  };
  TR_ASSERT(heap_.empty());
  heap_.emplace_back(topo_rank_[static_cast<std::size_t>(g)], g);
  queued_[static_cast<std::size_t>(g)] = 1;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank_greater);
    const GateId u = heap_.back().second;
    heap_.pop_back();
    queued_[static_cast<std::size_t>(u)] = 0;

    const netlist::GateInst& inst = netlist_->gate(u);
    const std::vector<double>& pd =
        (*tables_[static_cast<std::size_t>(u)].pin_delay)[
            static_cast<std::size_t>(config_[static_cast<std::size_t>(u)])];
    double arrival = 0.0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      arrival = std::max(
          arrival, arrival_[static_cast<std::size_t>(inst.inputs[pin])] +
                       pd[pin]);
    }
    const NetId out = inst.output;
    double& stored = arrival_[static_cast<std::size_t>(out)];
    if (arrival == stored) continue;
    undo.arrivals.emplace_back(out, stored);
    if (has_ceilings_) {
      const double ceiling =
          po_ceiling_[static_cast<std::size_t>(out)] + k_budget_epsilon;
      po_violations_ +=
          static_cast<int>(arrival > ceiling) - static_cast<int>(stored > ceiling);
    }
    stored = arrival;
    for (const std::pair<GateId, int>& fanout : netlist_->net(out).fanouts) {
      const GateId f = fanout.first;
      if (!queued_[static_cast<std::size_t>(f)]) {
        queued_[static_cast<std::size_t>(f)] = 1;
        heap_.emplace_back(topo_rank_[static_cast<std::size_t>(f)], f);
        std::push_heap(heap_.begin(), heap_.end(), by_rank_greater);
      }
    }
  }
  return undo;
}

void IncrementalScorer::revert(const Undo& undo) {
  config_[static_cast<std::size_t>(undo.gate)] = undo.old_config;
  total_power_ = undo.old_total_power;
  po_violations_ = undo.old_po_violations;
  for (auto it = undo.arrivals.rbegin(); it != undo.arrivals.rend(); ++it) {
    arrival_[static_cast<std::size_t>(it->first)] = it->second;
  }
}

void IncrementalScorer::set_configs(const std::vector<int>& configs) {
  require(configs.size() == config_.size(),
          "search: configuration vector arity mismatch");
  config_ = configs;
  recompute_state();
}

std::vector<double> IncrementalScorer::full_arrivals() const {
  std::vector<double> arrival(
      static_cast<std::size_t>(netlist_->net_count()), 0.0);
  for (GateId g : topo_order_) {
    const netlist::GateInst& inst = netlist_->gate(g);
    const std::vector<double>& pd =
        (*tables_[static_cast<std::size_t>(g)].pin_delay)[
            static_cast<std::size_t>(config_[static_cast<std::size_t>(g)])];
    double out = 0.0;
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      out = std::max(
          out,
          arrival[static_cast<std::size_t>(inst.inputs[pin])] + pd[pin]);
    }
    arrival[static_cast<std::size_t>(inst.output)] = out;
  }
  return arrival;
}

std::vector<double> IncrementalScorer::required_times() const {
  require(has_ceilings_, "search: required_times needs a delay budget");
  std::vector<double> required(
      static_cast<std::size_t>(netlist_->net_count()), k_inf);
  for (NetId id : netlist_->primary_outputs()) {
    required[static_cast<std::size_t>(id)] =
        std::min(required[static_cast<std::size_t>(id)],
                 po_ceiling_[static_cast<std::size_t>(id)]);
  }
  for (auto it = topo_order_.rbegin(); it != topo_order_.rend(); ++it) {
    const netlist::GateInst& inst = netlist_->gate(*it);
    const double out_required = required[static_cast<std::size_t>(inst.output)];
    const std::vector<double>& pd =
        (*tables_[static_cast<std::size_t>(*it)].pin_delay)[
            static_cast<std::size_t>(config_[static_cast<std::size_t>(*it)])];
    for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
      double& in_required = required[static_cast<std::size_t>(inst.inputs[pin])];
      in_required = std::min(in_required, out_required - pd[pin]);
    }
  }
  return required;
}

GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options) {
  for (int cfg : scorer.configs()) {
    require(cfg == 0, "greedy_seed: scorer must hold the incoming configs");
  }
  const Netlist& netlist = scorer.netlist();
  GreedySeed seed;
  seed.configs.assign(static_cast<std::size_t>(scorer.gate_count()), 0);

  // Arrival budgeting (paper conclusion (b)): per-net ceilings of
  // (1 + f) x the original arrival (the scorer still holds configuration
  // 0 everywhere, so its arrivals are the original ones) against the
  // running arrivals of the partially committed netlist.
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
  return commit_configs(netlist, scorer, seed.configs, seed);
}

OptimizeReport anneal_optimize(Netlist& netlist,
                               const std::map<NetId, SignalStats>& pi_stats,
                               const celllib::Tech& tech,
                               const OptimizeOptions& options) {
  const AnnealParams& params = options.anneal;
  require(params.iterations_per_gate >= 0, "anneal: iterations_per_gate < 0");
  require(params.min_iterations >= 0, "anneal: min_iterations < 0");
  require(std::isfinite(params.initial_temp_scale) &&
              params.initial_temp_scale >= 0.0,
          "anneal: initial_temp_scale must be finite and >= 0");
  require(params.final_temp_ratio > 0.0 && params.final_temp_ratio <= 1.0,
          "anneal: final_temp_ratio must be in (0, 1]");
  require(params.slack_refresh >= 1, "anneal: slack_refresh must be >= 1");

  const bool cancellable = options.cancel.valid();
  IncrementalScorer scorer(netlist, pi_stats, tech, options.model,
                           options.cancel);
  const GreedySeed seed = greedy_seed(scorer, options);
  if (options.max_circuit_delay_increase) {
    scorer.set_delay_budget(*options.max_circuit_delay_increase);
  }
  scorer.set_configs(seed.configs);
  TR_ASSERT(scorer.feasible());  // the greedy seed honours per-net budgets
  const double greedy_power = scorer.total_power_in_topo_order();

  const int gates = scorer.gate_count();
  const std::uint64_t total_iters = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(params.min_iterations),
      static_cast<std::uint64_t>(params.iterations_per_gate) *
          static_cast<std::uint64_t>(gates));

  // Initial temperature: a fraction of the mean per-gate power span, so
  // early uphill moves can cross typical single-gate barriers; geometric
  // decay to final_temp_ratio x T0 across the whole move budget.
  double span_sum = 0.0;
  for (GateId g = 0; g < gates; ++g) {
    const std::vector<double>& power = scorer.table(g).power;
    const auto [lo, hi] = std::minmax_element(power.begin(), power.end());
    span_sum += *hi - *lo;
  }
  const double t0 =
      params.initial_temp_scale * (gates > 0 ? span_sum / gates : 0.0);

  // Minimisation throughout: E = sign * power.
  const double sign =
      options.objective == Objective::minimize_power ? 1.0 : -1.0;

  AnnealStats stats;
  std::vector<int> best = scorer.configs();
  double best_energy = sign * scorer.total_power();
  std::vector<double> required;
  if (scorer.has_delay_budget()) required = scorer.required_times();
  int accepted_since_refresh = 0;

  if (t0 > 0.0 && gates > 0 && total_iters > 1) {
    tr::Rng rng(params.seed);
    const double alpha =
        std::pow(params.final_temp_ratio,
                 1.0 / static_cast<double>(total_iters - 1));
    double temp = t0;
    for (std::uint64_t it = 0; it < total_iters; ++it, temp *= alpha) {
      if (cancellable && (it & 1023u) == 0) options.cancel.check("anneal");
      ++stats.iterations;

      // Move: uniform gate, uniform *other* configuration of that gate.
      const GateId g =
          static_cast<GateId>(rng.next_below(static_cast<std::uint64_t>(gates)));
      const GateTable& table = scorer.table(g);
      const int n = table.config_count();
      if (n <= 1) continue;
      const int current = scorer.config_of(g);
      int candidate = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(n - 1)));
      if (candidate >= current) ++candidate;
      if (options.restrict_to_instance && !table.same_instance(candidate)) {
        continue;
      }

      // Slack prune: reject before propagating when the gate's own output
      // would already overshoot its required time. Required times go stale
      // between refreshes, which can only over-reject (a quality knob) —
      // acceptance is always validated by the exact propagation below.
      if (!required.empty()) {
        const netlist::GateInst& inst = netlist.gate(g);
        const std::vector<double>& pd =
            (*table.pin_delay)[static_cast<std::size_t>(candidate)];
        double out = 0.0;
        for (std::size_t pin = 0; pin < inst.inputs.size(); ++pin) {
          out = std::max(
              out, scorer.arrival(inst.inputs[pin]) + pd[pin]);
        }
        if (out > required[static_cast<std::size_t>(inst.output)] +
                      k_budget_epsilon) {
          ++stats.rejected_delay;
          continue;
        }
      }

      const IncrementalScorer::Undo undo = scorer.apply(g, candidate);
      if (scorer.has_delay_budget() && !scorer.feasible()) {
        scorer.revert(undo);
        ++stats.rejected_delay;
        continue;
      }
      const double delta = sign * (scorer.total_power() - undo.old_total_power);
      bool accept = delta <= 0.0;
      if (!accept && temp > 0.0) {
        accept = rng.next_double() < std::exp(-delta / temp);
      }
      if (!accept) {
        scorer.revert(undo);
        continue;
      }
      ++stats.accepted;
      if (delta > 0.0) ++stats.uphill_accepted;
      const double energy = sign * scorer.total_power();
      if (energy < best_energy) {
        best_energy = energy;
        best = scorer.configs();
      }
      if (!required.empty() &&
          ++accepted_since_refresh >= params.slack_refresh) {
        required = scorer.required_times();
        accepted_since_refresh = 0;
      }
    }
  }

  // Last cancellation point: past here the netlist is mutated.
  if (cancellable) options.cancel.check("anneal");

  // Final commit compares *true* (topo-order) objective values, so the
  // result never loses to the greedy seed — ties and any accumulated
  // exact-difference drift both resolve to the seed.
  scorer.set_configs(best);
  const double best_power = scorer.total_power_in_topo_order();
  const bool use_best = options.objective == Objective::minimize_power
                            ? best_power < greedy_power
                            : best_power > greedy_power;
  if (!use_best) scorer.set_configs(seed.configs);
  TR_ASSERT(scorer.feasible());

  OptimizeReport report =
      commit_configs(netlist, scorer, scorer.configs(), seed);
  stats.greedy_power = greedy_power;
  stats.final_power = report.model_power_after;
  report.anneal = stats;
  return report;
}

}  // namespace tr::opt::search
