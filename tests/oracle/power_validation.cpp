#include "oracle/power_validation.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace tr::power {

namespace {

bool within(double model, const Estimate& sim, double allowance) {
  return std::abs(model - sim.mean) <= sim.ci95 + allowance * std::abs(model);
}

/// Relative disagreement, guarded against zero-power gates: a gate whose
/// model and simulated powers are both zero contributes 0.
double rel_error(double model, const Estimate& sim) {
  const double scale = std::max(std::abs(model), std::abs(sim.mean));
  if (scale == 0.0) return 0.0;
  return std::abs(model - sim.mean) / scale;
}

}  // namespace

ValidationReport validate_power_model(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const ValidationOptions& options) {
  require(options.rel_slack >= 0.0,
          "validate_power_model: rel_slack must be >= 0");
  require(options.bias_envelope >= 0.0,
          "validate_power_model: bias_envelope must be >= 0");

  // Model side: one activity propagation, both model kinds (the
  // output-only evaluation backs the sharp claim, the extended one the
  // envelope claim).
  const CircuitActivity activity = propagate_activity(netlist, pi_stats);
  const CircuitPower extended =
      circuit_power(netlist, activity, tech, ModelKind::extended);
  const CircuitPower output_only =
      circuit_power(netlist, activity, tech, ModelKind::output_only);

  // Simulation side: the replicated oracle. PI energy must be counted so
  // the simulated PI column exists; the per-gate energies never include
  // it either way.
  sim::MonteCarloOptions mc = options.mc;
  mc.sim.count_pi_energy = true;
  const sim::SimSummary summary =
      sim::monte_carlo(netlist, pi_stats, tech, mc);
  TR_ASSERT(summary.measure_time > 0.0);
  const double to_watts = 1.0 / summary.measure_time;

  ValidationReport report;
  report.replications = summary.replications;
  report.rel_slack = options.rel_slack;
  report.bias_envelope = options.bias_envelope;
  report.truncated = summary.truncated_replications > 0;

  report.gates.reserve(static_cast<std::size_t>(netlist.gate_count()));
  for (netlist::GateId g = 0; g < netlist.gate_count(); ++g) {
    const std::size_t index = static_cast<std::size_t>(g);
    const netlist::GateInst& inst = netlist.gate(g);
    GateValidation row;
    row.gate = g;
    row.name = inst.name;
    row.cell = inst.cell;

    row.model_output_power = output_only.per_gate[index];
    row.sim_output_power =
        scaled(summary.per_gate_output_energy[index], to_watts);
    row.output_within_ci =
        within(row.model_output_power, row.sim_output_power, options.rel_slack);

    row.model_total_power = extended.per_gate[index];
    row.sim_total_power = scaled(summary.per_gate_energy[index], to_watts);
    row.total_within_envelope = within(row.model_total_power,
                                       row.sim_total_power,
                                       options.bias_envelope);

    if (row.output_within_ci) ++report.output_within_ci_count;
    if (row.total_within_envelope) ++report.total_within_envelope_count;
    report.max_output_rel_error =
        std::max(report.max_output_rel_error,
                 rel_error(row.model_output_power, row.sim_output_power));
    report.max_total_rel_error =
        std::max(report.max_total_rel_error,
                 rel_error(row.model_total_power, row.sim_total_power));
    report.gates.push_back(std::move(row));
  }

  report.model_output_total = output_only.gate_power;
  report.sim_output_total = scaled(summary.output_node_energy, to_watts);
  report.output_totals_within_ci = within(
      report.model_output_total, report.sim_output_total, options.rel_slack);

  report.model_gate_power = extended.gate_power;
  report.sim_gate_power = scaled(summary.gate_energy, to_watts);
  report.totals_within_envelope =
      within(report.model_gate_power, report.sim_gate_power,
             options.bias_envelope);

  report.model_pi_power = extended.pi_load_power;
  report.sim_pi_power = scaled(summary.pi_energy, to_watts);
  report.pi_within_ci =
      within(report.model_pi_power, report.sim_pi_power, options.rel_slack);
  return report;
}

}  // namespace tr::power
