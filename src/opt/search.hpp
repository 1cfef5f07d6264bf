#pragma once
// The table-driven greedy walk behind every optimize() (DESIGN.md
// Sec. 7 and 14).
//
//  * IncrementalScorer — one-time setup precomputes, per gate, the model
//    power of *every* catalog configuration through the word-parallel
//    catalog scorer, on a thread pool (each gate writes only its own
//    slot, so the tables do not depend on the thread count).
//
//  * delay_tables — what a delay budget adds: the per-pin Elmore delays
//    of every configuration (through the same delay::gate_delays path
//    static timing runs, memoised per (catalog, external load)) and the
//    arrivals of the incoming netlist, field-exact against
//    delay::circuit_delay (tests/test_search.cpp). Built only for
//    budgeted walks.
//
//  * greedy_seed — the paper's greedy walk, under per-net arrival
//    ceilings when a budget is set, read off those tables. The test
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

/// Precomputed scoring table of one gate: the model power of every
/// configuration, in catalog (= enumeration) order; index 0 is the
/// incoming configuration.
struct GateTable {
  std::shared_ptr<const celllib::ReorderCatalog> catalog;
  std::vector<double> power;  ///< model power per configuration [W]
  double load = 0.0;          ///< external load of the output net [F]

  int config_count() const noexcept { return static_cast<int>(power.size()); }
  /// Same-layout-instance flag of a configuration (for
  /// OptimizeOptions::restrict_to_instance).
  bool same_instance(int config) const {
    return catalog->configs()[static_cast<std::size_t>(config)]
        .same_instance_as_first;
  }
};

/// The per-gate scoring tables of a netlist. Immutable after
/// construction.
class IncrementalScorer {
public:
  /// Builds the per-gate tables (the expensive one-time pass; polls
  /// `cancel` per gate). `pi_stats` must cover all primary inputs.
  /// Catalogs are fetched serially in GateId order; scoring runs on the
  /// process-wide shared pool for `threads` == 0 and on a dedicated pool
  /// of `threads` workers otherwise (1 = serial).
  IncrementalScorer(const netlist::Netlist& netlist,
                    const std::map<netlist::NetId, boolfn::SignalStats>&
                        pi_stats,
                    const celllib::Tech& tech, power::ModelKind model,
                    const util::CancellationToken& cancel = {},
                    int threads = 1);

  const netlist::Netlist& netlist() const noexcept { return *netlist_; }
  const celllib::Tech& tech() const noexcept { return tech_; }
  int gate_count() const noexcept { return static_cast<int>(tables_.size()); }
  const GateTable& table(netlist::GateId g) const {
    return tables_[static_cast<std::size_t>(g)];
  }
  const std::vector<netlist::GateId>& topo_order() const noexcept {
    return topo_order_;
  }
  /// Worker threads of the pool that built the tables.
  int threads_used() const noexcept { return threads_used_; }

private:
  const netlist::Netlist* netlist_;
  celllib::Tech tech_;
  std::vector<GateTable> tables_;
  std::vector<netlist::GateId> topo_order_;
  int threads_used_ = 1;
};

/// What a delay budget reads off a scorer's netlist.
struct DelayTables {
  /// pin_delay[gate][config][pin]: worst Elmore pin-to-output delay [s],
  /// identical to delay::gate_delays on that configuration's graph.
  /// Gates sharing a catalog and a load share one table.
  std::vector<std::shared_ptr<const std::vector<std::vector<double>>>>
      pin_delay;
  /// Arrival per net (NetId order) under the incoming configurations,
  /// field-exactly delay::circuit_delay's.
  std::vector<double> arrivals;
};
/// Builds the delay tables serially in topological order (polls `cancel`
/// per gate).
DelayTables delay_tables(const IncrementalScorer& scorer,
                         const util::CancellationToken& cancel = {});

/// The paper's greedy one-pass walk (Fig. 3) off the scorer's tables:
/// topological traversal, enumeration-order tie-breaking and, under a
/// budget, per-net arrival ceilings of (1 + budget) x original. Without
/// a budget every choice is the gate's own optimum; with or without one
/// the decisions are bit-identical to the test oracle's reference
/// engine (tests/test_search.cpp).
struct GreedySeed {
  std::vector<int> configs;  ///< chosen configuration per gate, GateId order
  int rejected_delay = 0;
  int rejected_instance = 0;
};
GreedySeed greedy_seed(const IncrementalScorer& scorer,
                       const OptimizeOptions& options);

}  // namespace tr::opt::search
