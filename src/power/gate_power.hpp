#pragma once
// The paper's extended power-consumption model of a static CMOS gate
// (Sec. 3.3): per-node equilibrium probabilities and per-input transition
// counts derived from the H_nk / G_nk path functions, including the power
// of internal nodes.
//
// For every node n_k (internal nodes and the output):
//
//   P(n_k)     = P(H_nk) / (P(H_nk) + P(G_nk))          (steady state)
//   T_{nk,xi}  = D(x_i) * [ P(dH_nk/dx_i) * (1 - P(n_k))
//                         + P(dG_nk/dx_i) * P(n_k) ]
//   W_nk|xi    = 1/2 * C_nk * Vdd^2 * T_{nk,xi}
//
// For the output node, where G = ~H, T collapses to Najm's transition
// density (DESIGN.md Sec. 2) — this consistency is enforced by tests.

#include <vector>

#include "boolfn/minterm_weights.hpp"
#include "boolfn/signal.hpp"
#include "celllib/tech.hpp"
#include "gategraph/gate_graph.hpp"

namespace tr::power {

/// Power/activity breakdown of one node of a gate.
struct NodePower {
  int node = -1;          ///< GateGraph node id
  double prob = 0.0;      ///< equilibrium probability P(n_k)
  double density = 0.0;   ///< sum_i T_{nk,xi} [transitions / time unit]
  double capacitance = 0.0;  ///< C_nk [F]
  double power = 0.0;     ///< sum_i W_nk|xi [W]
};

/// Model evaluation result for one gate configuration.
struct GatePower {
  std::vector<NodePower> nodes;  ///< internal nodes first, output node last
  double total_power = 0.0;      ///< P_gate = sum over nodes [W]
  boolfn::SignalStats output;    ///< P(y), D(y) for downstream propagation
};

/// The shared arithmetic core of the model: evaluates one node from its
/// precomputed tables. `dh[i]` / `dg[i]` are the boolean differences of
/// h / g w.r.t. input i (arrays of inputs.size() tables), and `weights`
/// must be bound to the inputs' probabilities. The graph walk
/// (evaluate_gate_power) and the catalog readers (opt::score_catalog,
/// circuit_power) all funnel through this function, which is what makes
/// their power numbers bit-identical. The caller fills NodePower::node.
NodePower evaluate_node_tables(const boolfn::TruthTable& h,
                               const boolfn::TruthTable& g,
                               const boolfn::TruthTable* dh,
                               const boolfn::TruthTable* dg, double cap,
                               const std::vector<boolfn::SignalStats>& inputs,
                               const boolfn::MintermWeights& weights,
                               const celllib::Tech& tech);

/// Evaluates the extended model on one gate configuration.
///
/// `node_caps` is indexed by GateGraph node id (see
/// celllib::node_capacitances); `inputs[j]` are the statistics of the
/// signal bound to gate input j.
GatePower evaluate_gate_power(const gategraph::GateGraph& graph,
                              const std::vector<double>& node_caps,
                              const std::vector<boolfn::SignalStats>& inputs,
                              const celllib::Tech& tech);

}  // namespace tr::power
