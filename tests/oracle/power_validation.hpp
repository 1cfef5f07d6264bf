#pragma once
// Statistical validation of the stochastic power model against the
// switch-level simulator — the machine-checked form of the paper's
// Table 3 "model vs S" comparison (paper Sec. 5), DESIGN.md Sec. 8.4.
// A test oracle: only tests/test_validation.cpp uses it, so it lives
// with the tests and links through tr_reference_oracle.
//
// The simulator is run as a replicated Monte-Carlo oracle
// (sim/monte_carlo.hpp), so every simulated power carries a 95%
// confidence interval, and each gate is gated on two claims of very
// different sharpness:
//
//  * Output node (sharp). At the output node the extended model
//    collapses exactly to Najm's transition density (DESIGN.md Sec. 2,
//    output-node consistency property), which is exact on glitch-free
//    read-once circuits — so the simulated output-node power must sit
//    inside `CI half-width + rel_slack * |model|`, where rel_slack is a
//    small allowance for the ~5% of deterministic seeds whose true mean
//    falls just outside a 95% interval.
//
//  * Extended total (envelope). The extended model's internal-node
//    statistics use the steady-state charge approximation
//    P(n) = P(H)/(P(H)+P(G)) (paper Sec. 3.3), which ignores the
//    input/state correlation of a retained charge. The resulting bias is
//    systematic (the model overestimates; measured +2% on inverters to
//    +35% on 4-high series stacks, DESIGN.md Sec. 8.4) and survives any
//    number of replications, so the total is gated on
//    `CI half-width + bias_envelope * |model|` instead of the CI alone.

#include <map>
#include <string>
#include <vector>

#include "power/circuit_power.hpp"
#include "sim/monte_carlo.hpp"
#include "util/stats.hpp"

namespace tr::power {

struct ValidationOptions {
  /// Monte-Carlo oracle configuration. Defaults to zero-delay mode: the
  /// stochastic model cannot see glitches, so model validation is only
  /// meaningful on glitch-free simulations (set `mc.sim.delay_model`
  /// back to elmore to *measure* the glitch gap instead of gating on it).
  sim::MonteCarloOptions mc = [] {
    sim::MonteCarloOptions o;
    o.sim.delay_model = sim::DelayModel::zero;
    return o;
  }();
  /// Sharp-claim allowance on top of every 95% CI (DESIGN.md Sec. 8.4).
  double rel_slack = 0.03;
  /// Documented internal-node model-bias envelope for the extended
  /// totals (DESIGN.md Sec. 8.4).
  double bias_envelope = 0.40;
};

/// One gate's model-vs-simulation pairing.
struct GateValidation {
  netlist::GateId gate = -1;
  std::string name;  ///< instance name
  std::string cell;  ///< library cell name

  double model_output_power = 0.0;  ///< output-only model [W]
  Estimate sim_output_power;        ///< simulated output-node power [W]
  /// Sharp: |model_output - sim mean| <= CI + rel_slack * |model|.
  bool output_within_ci = false;

  double model_total_power = 0.0;  ///< extended model (internal + output) [W]
  Estimate sim_total_power;        ///< simulated gate power [W]
  /// Envelope: |model_total - sim mean| <= CI + bias_envelope * |model|.
  bool total_within_envelope = false;
};

struct ValidationReport {
  std::vector<GateValidation> gates;  ///< indexed by GateId

  double model_output_total = 0.0;  ///< output-only model sum [W]
  Estimate sim_output_total;        ///< simulated output-node power [W]
  bool output_totals_within_ci = false;  ///< sharp claim on the sum

  double model_gate_power = 0.0;  ///< extended model sum [W]
  Estimate sim_gate_power;        ///< simulated non-PI power [W]
  bool totals_within_envelope = false;

  double model_pi_power = 0.0;  ///< PI-load switching power (exact) [W]
  Estimate sim_pi_power;
  bool pi_within_ci = false;  ///< sharp claim (the PI formula is exact)

  std::size_t output_within_ci_count = 0;
  std::size_t total_within_envelope_count = 0;
  /// Worst per-gate disagreement |model - sim| / max(|model|, |sim|) for
  /// the output-node claim (0 when both sides are zero).
  double max_output_rel_error = 0.0;
  /// Same normalisation for the extended totals.
  double max_total_rel_error = 0.0;
  /// True when any replication hit the event budget: the simulated
  /// columns then cover partial windows and the report must not be
  /// trusted — differential tests assert this is false before anything
  /// else.
  bool truncated = false;

  std::size_t replications = 0;
  double rel_slack = 0.0;      ///< the sharp tolerance the verdicts used
  double bias_envelope = 0.0;  ///< the envelope the verdicts used

  bool all_within_tolerance() const {
    return !truncated && output_totals_within_ci && totals_within_envelope &&
           pi_within_ci && output_within_ci_count == gates.size() &&
           total_within_envelope_count == gates.size();
  }
};

/// Pairs model-predicted and Monte-Carlo simulated per-gate power for
/// every gate of `netlist` (plus PI-load and whole-circuit totals) and
/// applies the tolerance verdicts described above.
ValidationReport validate_power_model(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const ValidationOptions& options = {});

}  // namespace tr::power
