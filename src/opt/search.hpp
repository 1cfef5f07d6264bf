#pragma once
// The table-driven greedy walk behind every optimize() (DESIGN.md
// Sec. 7 and 14).
//
//  * IncrementalScorer — one-time setup precomputes, per gate, the model
//    power of *every* catalog configuration through the word-parallel
//    catalog scorer, on a thread pool (each gate writes only its own
//    slot, so the tables do not depend on the thread count).
//
//  * arrivals — static timing off the catalogs' pin-delay memo
//    (celllib::PinDelayTable, shared library-wide per (catalog, tech,
//    load)): the net arrivals under any choice of configurations,
//    field-exact against delay::circuit_delay (tests/test_search.cpp,
//    tests/test_static_timer.cpp). optimize() reads its critical paths
//    here; a budgeted walk reads its ceilings here.
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
  /// The catalog's pin-delay memo for (tech, load); lives as long as
  /// `catalog`.
  const celllib::PinDelayTable* delays = nullptr;

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
  /// Catalogs are fetched serially in GateId order; scoring runs on a
  /// pool of `threads` workers made for this call (0 = one per hardware
  /// thread, 1 = serial).
  IncrementalScorer(const netlist::Netlist& netlist,
                    const std::map<netlist::NetId, boolfn::SignalStats>&
                        pi_stats,
                    const celllib::Tech& tech, power::ModelKind model,
                    const util::CancellationToken& cancel = {},
                    int threads = 1);

  const netlist::Netlist& netlist() const noexcept { return *netlist_; }
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
  std::vector<GateTable> tables_;
  std::vector<netlist::GateId> topo_order_;
  int threads_used_ = 1;
};

/// Arrival per net (NetId order) with gate g in configuration
/// configs[g] (every gate in its incoming configuration 0 when `configs`
/// is empty), read off the pin-delay memo: field-exactly what
/// delay::circuit_delay returns on the netlist so configured.
std::vector<double> arrivals(const IncrementalScorer& scorer,
                             const std::vector<int>& configs = {});

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
