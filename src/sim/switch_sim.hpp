#pragma once
// Event-driven switch-level simulation — the reproduction's stand-in for
// the SLS simulator the paper uses to validate the model (Table 3,
// column S; substitution documented in DESIGN.md Sec. 4.2).
//
// This header holds the options/result types and the single-replication
// entry point. The event loop itself — the library's only one — lives in
// sim/sim_engine.hpp (`SimEngine`), which precomputes the per-netlist
// tables once and can run any number of independent replications;
// sim/monte_carlo.hpp runs replicated parallel simulations with
// confidence intervals on top of it (DESIGN.md Sec. 8; the hot-path
// architecture — scheduler, arenas, scratch reuse — is Sec. 10).
//
// Semantics:
//  * Primary inputs are continuous-time 0-1 Markov processes: holding
//    times are exponential with rates chosen so the equilibrium
//    probability is P and the transition density is D (paper Sec. 5.1:
//    "time intervals between two consecutive transitions follow an
//    exponential distribution with average 1/Dk").
//  * Each gate is simulated at the transistor level: on every input
//    change, each internal stack node charges if its pull-up path
//    function H is true, discharges if its pull-down path function G is
//    true, and *retains its state* otherwise (charge storage; no charge
//    sharing, as the paper assumes).
//  * Outputs commit after a per-pin Elmore delay with inertial
//    filtering, so unequal path delays create glitches — the "useless
//    signal transitions" of paper Sec. 1 — which the stochastic model
//    cannot see. A zero-delay mode exists for model-validation tests.
//  * Every transition of a node with capacitance C costs Vdd^2 * C / 2,
//    matching the model's power convention.

#include <cstdint>
#include <map>
#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "util/cancel.hpp"

namespace tr::sim {

/// Commit-delay model selection. `elmore` (per-pin, delay-accurate) is
/// what the paper's column S uses; `zero` (glitch-free, delta-cycle
/// levelized) backs model validation; `unit` (uniform per-arc delay,
/// glitches retained) isolates glitching from delay magnitudes.
enum class DelayModel : std::uint8_t { elmore, zero, unit };

struct SimOptions {
  double warmup_time = 2e-5;   ///< settle time before measuring [s]
  double measure_time = 1e-3;  ///< measurement window [s]
  std::uint64_t seed = 1;      ///< RNG seed for the input processes
  bool count_pi_energy = true; ///< include PI-net load switching energy
  DelayModel delay_model = DelayModel::elmore;
  /// Uniform per-arc commit delay under DelayModel::unit [s]; must be
  /// > 0 (an actual zero would silently change the glitch semantics —
  /// ask for DelayModel::zero instead).
  double unit_delay = 1e-12;
  std::uint64_t max_events = 200'000'000;  ///< runaway guard
  /// Cooperative cancellation, polled every few thousand events in the
  /// event loop (a cancelled replication throws tr::util::Cancelled and
  /// yields no partial SimResult). The default token is inert and costs
  /// nothing.
  util::CancellationToken cancel;
};

/// Time-weighted statistics observed on one net during the window.
struct NetObservation {
  double prob = 0.0;     ///< fraction of time at '1'
  double density = 0.0;  ///< transitions per second
};

struct SimResult {
  double energy = 0.0;          ///< total switching energy in window [J]
  double power = 0.0;           ///< energy / measured_time [W]
  double output_node_energy = 0.0;
  double internal_node_energy = 0.0;
  double pi_energy = 0.0;
  std::vector<double> per_gate_energy;  ///< indexed by GateId [J]
  /// Output-node share of per_gate_energy (no internal nodes), the
  /// simulated side of the exact output-node model bridge (DESIGN.md
  /// Sec. 2, "output-node consistency property").
  std::vector<double> per_gate_output_energy;
  std::vector<NetObservation> nets;     ///< indexed by NetId
  std::uint64_t event_count = 0;
  /// True when the run hit `max_events` and stopped early. The result
  /// then covers only the partial window `measured_time`; consumers that
  /// need a complete window (the differential validation suite, the
  /// Monte-Carlo summaries) must check this flag and fail loudly.
  bool truncated = false;
  /// The window the statistics are normalised over [s]: `measure_time`
  /// for a complete run, the simulated prefix for a truncated one.
  double measured_time = 0.0;

  // Throughput diagnostics (DESIGN.md Sec. 10.4). Wall-clock figures —
  // *excluded* from the determinism contract: every field above is a
  // pure function of the seed, these three depend on the machine.
  double elapsed_seconds = 0.0;  ///< wall time of this replication [s]
  double events_per_sec = 0.0;   ///< event_count / elapsed_seconds
  /// High-water bytes of the replication scratch (state arenas + event
  /// queue) after this run.
  std::size_t scratch_bytes = 0;
};

/// Runs one replication. `pi_stats` must cover every primary input.
SimResult simulate(const netlist::Netlist& netlist,
                   const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
                   const celllib::Tech& tech, const SimOptions& options);

}  // namespace tr::sim
