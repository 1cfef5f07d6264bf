#pragma once
// The table-driven greedy walk behind every delay-budgeted optimize()
// (DESIGN.md Sec. 14).
//
// Under a delay budget a gate's admissible set depends on its fan-in
// gates' committed configurations, so the gate-parallel catalog pass
// cannot run. Instead:
//
//  * IncrementalScorer — one-time setup precomputes, per gate, the model
//    power and the per-pin Elmore delays of *every* catalog
//    configuration (power through the word-parallel catalog scorer,
//    delays through the same delay::gate_delays path static timing runs,
//    memoised per (catalog, external load)), plus the arrivals of the
//    incoming netlist — field-exact against delay::circuit_delay
//    (tests/test_search.cpp).
//
//  * greedy_seed / greedy_optimize — the paper's greedy walk under
//    per-net arrival ceilings, read off the scorer's tables. The test
//    oracle's per-candidate graph-rebuild engine (tests/oracle/) pins it
//    bit-identically.

#include <map>
#include <memory>
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

/// The per-gate scoring tables of a netlist and the Elmore arrivals of
/// its incoming configurations, field-exactly delay::circuit_delay's.
/// Immutable after construction.
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
  /// Arrival per net (NetId order) under the incoming configurations.
  const std::vector<double>& arrivals() const noexcept { return arrival_; }

private:
  const netlist::Netlist* netlist_;
  std::vector<GateTable> tables_;
  std::vector<netlist::GateId> topo_order_;
  std::vector<double> arrival_;  ///< by NetId
};

/// The paper's greedy one-pass walk (Fig. 3) off the scorer's tables:
/// topological traversal, per-net arrival budgets of
/// (1 + budget) x original, enumeration-order tie-breaking. Without a
/// budget its decisions equal the gate-parallel catalog pass; with or
/// without one they are bit-identical to the test oracle's reference
/// engine (tests/test_search.cpp).
struct GreedySeed {
  std::vector<int> configs;  ///< chosen configuration per gate, GateId order
  int rejected_delay = 0;
  int rejected_instance = 0;
};
GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options);

/// The delay-budgeted route of optimize(): builds the scorer, runs
/// greedy_seed and commits its configurations. Sequential
/// (threads_used == 1); cancellation is all-or-nothing — a cancelled
/// run throws before the netlist is touched.
OptimizeReport greedy_optimize(
    netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const OptimizeOptions& options);

}  // namespace tr::opt::search
