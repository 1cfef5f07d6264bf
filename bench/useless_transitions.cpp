// Supports the paper's Sec. 1 premise: "the power consumption of useless
// signal transitions (i.e. those transitions that do not contribute to
// the final result of the circuit) accounts for a large fraction of the
// overall dynamic power consumption".
//
// Method: simulate each circuit with identical input waveforms — once
// with per-pin Elmore gate delays (glitches happen) and once in
// levelized zero-delay mode (only functionally required transitions
// commit). The energy difference is the useless-transition share. The
// whole comparison is replicated as a paired Monte-Carlo estimate
// (DESIGN.md Sec. 8.2): replicate k of both runs shares the seed stream,
// so the share column carries a 95% confidence half-width over the
// per-replicate shares.
//
// Expected shape: a clearly positive glitch share (5-20%) on multilevel
// random logic with unbalanced reconvergent paths. The ripple-carry
// adders stay near zero here because (i) the paper's input model is
// asynchronous (exponential inter-arrival times — two operand bits never
// switch at the same instant, unlike a clocked system) and (ii) the
// balanced full-adder paths produce pulses shorter than the inertial
// gate delay, which swallows them.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "benchgen/generators.hpp"
#include "benchgen/suite.hpp"
#include "celllib/library.hpp"
#include "opt/scenario.hpp"
#include "sim/monte_carlo.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace tr;

struct GlitchShare {
  double mean = 0.0;  ///< [% of ideal energy]
  double ci95 = 0.0;  ///< 95% half-width over replicates [%]
  bool truncated = false;
  std::uint64_t events = 0;        ///< both runs' simulated events
  double elapsed_seconds = 0.0;    ///< both runs' wall time
  std::size_t scratch_bytes = 0;   ///< scratch high-water
};

GlitchShare glitch_share(const netlist::Netlist& nl,
                         const std::map<netlist::NetId, boolfn::SignalStats>& stats,
                         const celllib::Tech& tech, std::uint64_t seed,
                         int replications = 8) {
  sim::MonteCarloOptions mc;
  mc.sim.seed = seed;
  mc.replications = replications;
  double mean_density = 0.0;
  for (const auto& [net, s] : stats) mean_density += s.density;
  mean_density /= static_cast<double>(stats.size());
  mc.sim.measure_time = 250.0 / mean_density;
  mc.sim.warmup_time = mc.sim.measure_time * 0.02;
  mc.sim.count_pi_energy = false;  // PI waveforms are identical in both runs

  mc.sim.delay_model = sim::DelayModel::elmore;
  const sim::SimSummary with_delays = sim::monte_carlo(nl, stats, tech, mc);
  mc.sim.delay_model = sim::DelayModel::zero;
  const sim::SimSummary ideal = sim::monte_carlo(nl, stats, tech, mc);

  TR_ASSERT(with_delays.replicate_energy.size() ==
            ideal.replicate_energy.size());
  RunningStats share;
  for (std::size_t k = 0; k < ideal.replicate_energy.size(); ++k) {
    share.add(percent_increase(ideal.replicate_energy[k],
                               with_delays.replicate_energy[k]));
  }
  GlitchShare result;
  result.mean = share.mean();
  result.ci95 = share.ci95_half_width();
  result.truncated = with_delays.truncated_replications > 0 ||
                     ideal.truncated_replications > 0;
  result.events = with_delays.total_events + ideal.total_events;
  result.elapsed_seconds =
      with_delays.elapsed_seconds + ideal.elapsed_seconds;
  result.scratch_bytes = std::max(with_delays.scratch_high_water_bytes,
                                  ideal.scratch_high_water_bytes);
  return result;
}

}  // namespace

int main() {
  using namespace tr;

  const celllib::CellLibrary lib = celllib::CellLibrary::standard();
  const celllib::Tech tech;

  std::cout << "Sec. 1 premise: energy of useless (glitch) transitions as a\n"
               "share of the ideal (glitch-free) switching energy, with the\n"
               "95% CI half-width over paired replications.\n\n";

  TextTable table({"circuit", "G", "useless [% of ideal]", "±95 [%]"});
  bool truncated = false;
  std::uint64_t sim_events = 0;
  double sim_seconds = 0.0;
  std::size_t sim_scratch = 0;
  for (int bits : {4, 8, 16, 32}) {
    const netlist::Netlist nl = benchgen::ripple_carry_adder(lib, bits);
    const auto stats = opt::scenario_b(nl, 1e6);
    const GlitchShare share = glitch_share(nl, stats, tech, 77);
    truncated = truncated || share.truncated;
    sim_events += share.events;
    sim_seconds += share.elapsed_seconds;
    sim_scratch = std::max(sim_scratch, share.scratch_bytes);
    table.add_row({"rca" + std::to_string(bits), std::to_string(nl.gate_count()),
                   format_fixed(share.mean, 1), format_fixed(share.ci95, 1)});
  }
  for (const char* name : {"cm138a", "cmb", "c8", "alu2"}) {
    const auto& spec = benchgen::suite_entry(name);
    const netlist::Netlist nl = benchgen::build_benchmark(lib, spec);
    const auto stats = opt::scenario_a(nl, spec.seed ^ 0x77ULL);
    const GlitchShare share = glitch_share(nl, stats, tech, 78);
    truncated = truncated || share.truncated;
    sim_events += share.events;
    sim_seconds += share.elapsed_seconds;
    sim_scratch = std::max(sim_scratch, share.scratch_bytes);
    table.add_row({name, std::to_string(nl.gate_count()),
                   format_fixed(share.mean, 1), format_fixed(share.ci95, 1)});
  }
  table.print(std::cout);

  std::cout << "\nUnbalanced multilevel logic wastes a two-digit percentage "
               "of its energy\non useless transitions; the balanced adders "
               "stay near zero under the\npaper's asynchronous input model "
               "(see header comment). These are exactly\nthe transitions the "
               "stochastic model cannot see — why the paper validates\n"
               "against a switch-level simulator (Table 3, M vs S).\n";
  std::printf(
      "\nsim engine: %llu events in %.2f s (%.2e events/s), "
      "scratch high-water %.1f KiB\n",
      static_cast<unsigned long long>(sim_events), sim_seconds,
      sim_seconds > 0.0 ? static_cast<double>(sim_events) / sim_seconds : 0.0,
      static_cast<double>(sim_scratch) / 1024.0);
  if (truncated) {
    std::cout << "\nWARNING: at least one replication hit the event budget; "
                 "shares cover partial windows.\n";
    return 1;
  }
  return 0;
}
