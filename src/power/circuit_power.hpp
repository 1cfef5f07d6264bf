#pragma once
// Circuit-level activity propagation and power estimation.
//
// OBTAIN_PROBABILITIES of paper Fig. 3: equilibrium probabilities
// (Parker-McCluskey [7]) and transition densities (Najm [6]) are pushed
// from the primary inputs through the mapped netlist in topological
// order, assuming spatial independence. The circuit's model power is the
// sum of the per-gate extended-model powers, read off the catalog that
// characterised each gate's configuration (CellLibrary::catalog_slot,
// DESIGN.md Sec. 7.1; the graph walk is the oracle in tests/oracle/),
// plus the (exact) switching power of the primary-input nets' loads.

#include <map>
#include <vector>

#include "boolfn/signal.hpp"
#include "netlist/netlist.hpp"
#include "power/gate_power.hpp"

namespace tr::power {

/// Which gate model to use for circuit totals.
enum class ModelKind {
  extended,     ///< the paper's model: internal nodes + output node
  output_only,  ///< ablation baseline: output node only
};

/// Per-net signal statistics for a whole netlist.
struct CircuitActivity {
  /// Indexed by NetId.
  std::vector<boolfn::SignalStats> net_stats;
};

/// Propagates `pi_stats` (keyed by primary-input NetId; every PI must be
/// present) through the circuit. Gate output statistics come from the
/// cell logic function, so they are identical for every transistor
/// configuration — the monotonicity property of paper Sec. 4.2.
CircuitActivity propagate_activity(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats);

/// Estimated power decomposition of a netlist under given activity.
struct CircuitPower {
  std::vector<double> per_gate;  ///< indexed by GateId [W]
  double gate_power = 0.0;       ///< sum of per_gate [W]
  double pi_load_power = 0.0;    ///< switching power of PI net loads [W]
  double total() const { return gate_power + pi_load_power; }
};

/// Evaluates the model power of every gate in its *current*
/// configuration, bit-identical to evaluate_gate_power on each gate's
/// graph; `output_only` counts the output node alone (1/2 C V^2 D).
CircuitPower circuit_power(const netlist::Netlist& netlist,
                           const CircuitActivity& activity,
                           const celllib::Tech& tech,
                           ModelKind kind = ModelKind::extended);

}  // namespace tr::power
