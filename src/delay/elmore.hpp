#pragma once
// Configuration-dependent gate delay via Elmore RC analysis of the
// transistor stacks.
//
// When input pin x arrives last, every other device on the conducting
// path is already on: the internal nodes *below* x's device are already
// at the rail potential, so only the nodes between the output and x's
// device still carry charge. The Elmore time constant is therefore
//
//   tau(x via path) = sum_{nodes j above x's device} C_j * R(j -> rail)
//
// maximised over the simple paths through x's device. This reproduces
// the classic speed rule of thumb the paper cites in Sec. 5: the
// critical (late-arriving) input belongs *next to the output* for speed.
// The power-optimal ordering instead places devices by switching
// activity and signal probability, which generally disagrees with the
// timing-optimal placement of the late signal — that tension is what
// Table 3's delay column (D) measures.

#include <span>
#include <vector>

#include "celllib/tech.hpp"
#include "gategraph/gate_graph.hpp"
#include "netlist/netlist.hpp"

namespace tr::delay {

/// Pin-to-output delays of one gate configuration [seconds].
struct GateDelays {
  /// Worst of pull-up and pull-down Elmore delay per input pin.
  std::vector<double> pin_delay;
  /// max over pins.
  double worst = 0.0;
};

/// Computes per-pin Elmore delays for a gate configuration.
/// `node_caps` is indexed by GateGraph node id (celllib::node_capacitances).
GateDelays gate_delays(const gategraph::GateGraph& graph,
                       const std::vector<double>& node_caps,
                       const celllib::Tech& tech);

/// Static timing of a mapped netlist under the current configurations.
struct CircuitDelay {
  std::vector<double> net_arrival;  ///< indexed by NetId [s]; PIs arrive at 0
  double critical_path = 0.0;       ///< max arrival over primary outputs [s]
};

/// The static timer: output_arrival in topological order over pin delays
/// read off the pin-delay memo of the catalog holding each gate's
/// configuration (CellLibrary::catalog_slot; DESIGN.md Sec. 7.1), the
/// rows optimize() reads too. Bit-identical to gate_delays on each gate's
/// graph (the oracle in tests/oracle/graph_walk.hpp).
CircuitDelay circuit_delay(const netlist::Netlist& netlist,
                           const celllib::Tech& tech);

/// The arrival recurrence of static timing, the one copy every timer
/// runs: a gate's output arrives at the max over its pins, in pin order
/// from 0.0, of (input arrival + pin delay). `net_arrival` is indexed by
/// NetId, `pin_delay` by gate pin.
double output_arrival(const netlist::GateInst& gate,
                      const std::vector<double>& net_arrival,
                      std::span<const double> pin_delay);

/// Max arrival over the primary outputs [s] (0 when there are none).
double critical_path(const netlist::Netlist& netlist,
                     const std::vector<double>& net_arrival);

}  // namespace tr::delay
