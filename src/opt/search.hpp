#pragma once
// Delay-constrained global search (DESIGN.md Sec. 14).
//
// The greedy engine commits one configuration per gate in a single
// topological pass. Under a delay budget that is doubly conservative:
// every *net* is pinned to its original arrival ceiling (a gate may not
// borrow slack a downstream path never uses), and decisions are never
// revisited. This layer replaces the one-pass commit with a global
// search over joint gate configurations, following the Verle/LIRMM
// low-power-under-delay protocol (PAPERS.md): optimize non-critical
// paths aggressively while the primary-output ceilings protect the
// critical ones.
//
// Three pieces:
//
//  * IncrementalScorer — the rescoring core. One-time setup precomputes,
//    per gate, the model power and the per-pin Elmore delays of *every*
//    catalog configuration (power through the word-parallel catalog
//    scorer, delays through the same delay::gate_delays path static
//    timing runs, memoised per (catalog, external load)).
//    After that a configuration move costs only a table lookup plus an
//    arrival propagation over the move's fanout cone: gates are
//    re-evaluated in topological-rank order, each at most once, and
//    propagation stops where arrivals are unchanged. Every mutation
//    returns an Undo record, so trial moves revert exactly. The
//    differential oracle contract — cone-rescored arrivals are
//    field-identical to a from-scratch topological recompute (and to
//    delay::circuit_delay on the materialised netlist) — is pinned by
//    tests/test_search.cpp.
//
//  * greedy_seed / greedy_optimize — the paper's greedy walk under
//    per-net arrival ceilings, read off the scorer's tables. This is the
//    route optimize() takes for every delay-budgeted Engine::catalog
//    request; the test oracle's per-candidate graph-rebuild engine
//    (tests/oracle/) pins it bit-identically.
//
//  * anneal_optimize — iterated local search / simulated annealing over
//    the scorer. Seeded from greedy_seed, it draws single-gate
//    configuration moves from a seeded stream, keeps per-output arrival
//    ceilings hard (a move that leaves any primary output beyond
//    (1 + budget) x its original arrival is rejected), prunes obviously
//    infeasible moves early against periodically refreshed required
//    times (per-path slack budgets), and tracks the best feasible state.
//    Because the search starts at the greedy solution and the final
//    commit never picks a worse true objective than the seed, annealing
//    meets or beats greedy at the same delay budget on every circuit,
//    deterministically per seed.

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/catalog.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "opt/optimizer.hpp"
#include "util/cancel.hpp"

namespace tr::opt::search {

/// Precomputed scoring tables of one gate: the model power and the
/// per-pin Elmore delays of every configuration, in catalog (=
/// enumeration) order; index 0 is the incoming configuration.
struct GateTable {
  std::shared_ptr<const celllib::ReorderCatalog> catalog;
  std::vector<double> power;  ///< model power per configuration [W]
  /// pin_delay[config][pin]: worst Elmore pin-to-output delay [s],
  /// identical to delay::gate_delays on that configuration's graph.
  std::shared_ptr<const std::vector<std::vector<double>>> pin_delay;

  int config_count() const noexcept { return static_cast<int>(power.size()); }
  /// Same-layout-instance flag of a configuration (for
  /// OptimizeOptions::restrict_to_instance).
  bool same_instance(int config) const {
    return catalog->configs()[static_cast<std::size_t>(config)]
        .same_instance_as_first;
  }
};

/// Incremental power + Elmore-arrival state over joint gate
/// configurations. Construction leaves every gate at configuration 0
/// (the incoming netlist) with arrivals equal to delay::circuit_delay
/// of the incoming mapping, field-exactly.
class IncrementalScorer {
public:
  /// Builds the per-gate tables (the expensive one-time pass; polls
  /// `cancel` per gate). `pi_stats` must cover all primary inputs.
  IncrementalScorer(const netlist::Netlist& netlist,
                    const std::map<netlist::NetId, boolfn::SignalStats>&
                        pi_stats,
                    const celllib::Tech& tech, power::ModelKind model,
                    const util::CancellationToken& cancel = {});

  const netlist::Netlist& netlist() const noexcept { return *netlist_; }
  int gate_count() const noexcept { return static_cast<int>(tables_.size()); }
  const GateTable& table(netlist::GateId g) const {
    return tables_[static_cast<std::size_t>(g)];
  }
  const std::vector<netlist::GateId>& topo_order() const noexcept {
    return topo_order_;
  }

  int config_of(netlist::GateId g) const {
    return config_[static_cast<std::size_t>(g)];
  }
  const std::vector<int>& configs() const noexcept { return config_; }

  double arrival(netlist::NetId n) const {
    return arrival_[static_cast<std::size_t>(n)];
  }
  const std::vector<double>& arrivals() const noexcept { return arrival_; }

  /// Running objective value: the sum of every gate's current
  /// configuration power, maintained by exact-difference updates. Use
  /// total_power_in_topo_order() for reported totals (the engines'
  /// accumulation convention).
  double total_power() const noexcept { return total_power_; }
  /// Sum of the current per-gate powers accumulated in topological
  /// order — bit-identical to the greedy engines' running sums.
  double total_power_in_topo_order() const;

  /// Fixes per-primary-output arrival ceilings at
  /// (1 + fraction) x the *current* arrival — call while the scorer
  /// still holds the incoming configurations. Violation counting is
  /// maintained incrementally from here on.
  void set_delay_budget(double fraction);
  bool has_delay_budget() const noexcept { return has_ceilings_; }
  /// Number of primary outputs currently beyond their ceiling.
  int po_violations() const noexcept { return po_violations_; }
  bool feasible() const noexcept { return po_violations_ == 0; }

  /// One committed configuration move and everything needed to take it
  /// back. `arrivals` holds (net, previous arrival) pairs in the order
  /// the cone propagation rewrote them.
  struct Undo {
    netlist::GateId gate = -1;
    int old_config = 0;
    double old_total_power = 0.0;
    int old_po_violations = 0;
    std::vector<std::pair<netlist::NetId, double>> arrivals;
  };

  /// Moves gate `g` to configuration `config` and re-evaluates arrivals
  /// over the move's fanout cone only (topological-rank worklist, each
  /// gate at most once, propagation stops where arrivals are
  /// unchanged). Field-exact against a full recompute by contract.
  Undo apply(netlist::GateId g, int config);

  /// Exact rollback of apply().
  void revert(const Undo& undo);

  /// Replaces all configurations at once and recomputes arrivals,
  /// violations and the running total from scratch (the total in
  /// topological order, resynchronising any accumulated
  /// exact-difference drift).
  void set_configs(const std::vector<int>& configs);

  /// The differential oracle: a from-scratch topological recompute of
  /// all arrivals under the current configurations. The incremental
  /// `arrivals()` must equal this field-exactly after any apply/revert
  /// sequence.
  std::vector<double> full_arrivals() const;

  /// Latest admissible arrival per net under the current
  /// configurations and the PO ceilings (backward pass; +infinity where
  /// unconstrained). A net beyond its required time proves some primary
  /// output beyond its ceiling. Requires set_delay_budget().
  std::vector<double> required_times() const;

private:
  void recompute_state();  ///< arrivals + violations + topo-order total

  const netlist::Netlist* netlist_;
  std::vector<GateTable> tables_;
  std::vector<netlist::GateId> topo_order_;
  std::vector<int> topo_rank_;             ///< by GateId
  std::vector<int> config_;                ///< by GateId
  std::vector<double> arrival_;            ///< by NetId
  std::vector<double> po_ceiling_;         ///< by NetId; +inf off-PO
  bool has_ceilings_ = false;
  int po_violations_ = 0;
  double total_power_ = 0.0;
  /// Scratch for apply(): min-rank worklist + queued flags.
  std::vector<std::pair<int, netlist::GateId>> heap_;
  std::vector<char> queued_;
};

/// The paper's greedy one-pass walk (Fig. 3) off the scorer's tables:
/// topological traversal, per-net arrival budgets of
/// (1 + budget) x original, enumeration-order tie-breaking. Without a
/// budget its decisions equal the gate-parallel catalog pass; with or
/// without one they are bit-identical to the test oracle's reference
/// engine (tests/test_search.cpp). The scorer must still hold the
/// incoming configurations (all zero).
struct GreedySeed {
  std::vector<int> configs;  ///< chosen configuration per gate, GateId order
  int rejected_delay = 0;
  int rejected_instance = 0;
};
GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options);

/// The delay-budgeted route of optimize(Engine::catalog): builds the
/// scorer, runs greedy_seed and commits its configurations. Sequential
/// (threads_used == 1); cancellation is all-or-nothing — a cancelled
/// run throws before the netlist is touched.
OptimizeReport greedy_optimize(
    netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const OptimizeOptions& options);

/// The annealing engine behind optimize(Engine::anneal): greedy seed,
/// seeded simulated annealing over single-gate configuration moves with
/// hard per-output ceilings, best-feasible tracking, and a final commit
/// that never reports a worse true objective than the seed. Cancellation
/// is all-or-nothing: a cancelled run throws before the netlist is
/// touched. Deterministic per (netlist, pi_stats, tech, options).
OptimizeReport anneal_optimize(
    netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const OptimizeOptions& options);

}  // namespace tr::opt::search
