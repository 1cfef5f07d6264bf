#include "opt/search.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "delay/elmore.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace tr::opt::search {

using boolfn::SignalStats;
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
    const util::CancellationToken& cancel, int threads)
    : netlist_(&netlist) {
  netlist.validate();

  // OBTAIN_PROBABILITIES + CALCULATE_DENS as one up-front topological
  // pass: signal statistics are configuration-invariant (paper
  // Sec. 4.2), so they never depend on any reordering decision.
  const std::vector<SignalStats> net_stats =
      power::propagate_activity(netlist, pi_stats).net_stats;
  topo_order_ = netlist.topological_order();

  // Catalog prefetch, serial: the CellLibrary cache makes this one
  // characterisation per distinct cell configuration, shared by all gates.
  const bool cancellable = cancel.valid();
  tables_.resize(static_cast<std::size_t>(netlist.gate_count()));
  for (GateId g = 0; g < netlist.gate_count(); ++g) {
    if (cancellable) cancel.check("optimize");
    tables_[static_cast<std::size_t>(g)].catalog =
        with_error_site("characterize", [&] {
          return netlist.library().catalog(netlist.gate(g).config);
        });
  }

  util::ThreadPool pool(threads);
  threads_used_ = pool.thread_count();
  pool.parallel_for(tables_.size(), [&](std::size_t gi) {
    if (cancellable) cancel.check("optimize");
    thread_local ScoreScratch scratch;
    thread_local std::vector<SignalStats> inputs;
    const GateId g = static_cast<GateId>(gi);
    inputs.clear();
    for (NetId in : netlist.gate(g).inputs) {
      inputs.push_back(net_stats[static_cast<std::size_t>(in)]);
    }
    GateTable& table = tables_[gi];
    table.load = netlist.external_load(g, tech);
    table.power = with_error_site("score", [&] {
      return score_catalog(*table.catalog, inputs, table.load, tech, model,
                           scratch);
    });
    TR_ASSERT(!table.power.empty());
    table.delays = &table.catalog->pin_delays(tech, table.load);
  });
}

std::vector<double> arrivals(const IncrementalScorer& scorer,
                             const std::vector<int>& configs) {
  const Netlist& netlist = scorer.netlist();
  std::vector<double> out(static_cast<std::size_t>(netlist.net_count()), 0.0);
  for (GateId g : scorer.topo_order()) {
    const netlist::GateInst& inst = netlist.gate(g);
    const int config =
        configs.empty() ? 0 : configs[static_cast<std::size_t>(g)];
    out[static_cast<std::size_t>(inst.output)] = delay::output_arrival(
        inst, out, scorer.table(g).delays->pins(config));
  }
  return out;
}

GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options) {
  const Netlist& netlist = scorer.netlist();
  GreedySeed seed;
  seed.configs.assign(static_cast<std::size_t>(scorer.gate_count()), 0);

  // Arrival budgeting (paper conclusion (b)): per-net ceilings of
  // (1 + f) x the original arrival against the running arrivals of the
  // partially committed netlist.
  const std::optional<double>& budget = options.max_circuit_delay_increase;
  std::vector<double> original;
  std::vector<double> arrival;
  if (budget) {
    original = arrivals(scorer);
    arrival.assign(original.size(), 0.0);
  }

  const bool cancellable = options.cancel.valid();
  for (GateId g : scorer.topo_order()) {
    if (cancellable) options.cancel.check("optimize");
    const GateTable& table = scorer.table(g);
    const netlist::GateInst& inst = netlist.gate(g);
    const auto out_net = static_cast<std::size_t>(inst.output);
    const double ceiling = budget ? original[out_net] * (1.0 + *budget) : 0.0;

    std::size_t chosen = 0;
    double chosen_arrival = 0.0;
    for (std::size_t i = 0; i < table.power.size(); ++i) {
      bool admissible = true;
      if (options.restrict_to_instance &&
          !table.same_instance(static_cast<int>(i))) {
        admissible = false;
        ++seed.rejected_instance;
      }
      double out = 0.0;
      if (budget) {
        out = delay::output_arrival(inst, arrival,
                                    table.delays->pins(static_cast<int>(i)));
        if (i == 0) {
          // The incoming configuration always fits: its pin delays are
          // the original ones and its input arrivals are within budget.
          TR_ASSERT(out <= ceiling + 1e-15);
        } else if (out > ceiling + k_budget_epsilon) {
          admissible = false;
          ++seed.rejected_delay;
        }
      }
      if (!admissible) continue;
      const bool better = options.objective == Objective::minimize_power
                              ? table.power[i] < table.power[chosen]
                              : table.power[i] > table.power[chosen];
      if (i == 0 || better) {
        chosen = i;
        chosen_arrival = out;
      }
    }
    seed.configs[static_cast<std::size_t>(g)] = static_cast<int>(chosen);
    if (budget) arrival[out_net] = chosen_arrival;
  }
  return seed;
}

}  // namespace tr::opt::search
