#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <chrono>

#include "util/cancel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tr::sim {

namespace {

/// Welford accumulators mirroring the SimSummary layout. Accumulation is
/// strictly sequential in replicate-index order (the parallel part is
/// only the replications themselves), which is what makes the summary
/// independent of the thread count.
struct Accumulators {
  RunningStats energy, power, output_node_energy, internal_node_energy,
      pi_energy, gate_energy;
  std::vector<RunningStats> per_gate_energy;
  std::vector<RunningStats> per_gate_output_energy;
  std::vector<RunningStats> net_prob, net_density;
  std::size_t truncated = 0;
  std::uint64_t total_events = 0;
  std::vector<double> replicate_energy;
  std::size_t scratch_high_water = 0;

  void add(const SimResult& r) {
    energy.add(r.energy);
    power.add(r.power);
    output_node_energy.add(r.output_node_energy);
    internal_node_energy.add(r.internal_node_energy);
    pi_energy.add(r.pi_energy);
    gate_energy.add(r.energy - r.pi_energy);
    if (per_gate_energy.empty()) {
      per_gate_energy.resize(r.per_gate_energy.size());
      per_gate_output_energy.resize(r.per_gate_energy.size());
      net_prob.resize(r.nets.size());
      net_density.resize(r.nets.size());
    }
    for (std::size_t g = 0; g < r.per_gate_energy.size(); ++g) {
      per_gate_energy[g].add(r.per_gate_energy[g]);
      per_gate_output_energy[g].add(r.per_gate_output_energy[g]);
    }
    for (std::size_t n = 0; n < r.nets.size(); ++n) {
      net_prob[n].add(r.nets[n].prob);
      net_density[n].add(r.nets[n].density);
    }
    if (r.truncated) ++truncated;
    total_events += r.event_count;
    replicate_energy.push_back(r.energy);
    scratch_high_water = std::max(scratch_high_water, r.scratch_bytes);
  }

  SimSummary summary(double measure_time) const {
    SimSummary s;
    s.energy = energy.estimate();
    s.power = power.estimate();
    s.output_node_energy = output_node_energy.estimate();
    s.internal_node_energy = internal_node_energy.estimate();
    s.pi_energy = pi_energy.estimate();
    s.gate_energy = gate_energy.estimate();
    s.per_gate_energy.reserve(per_gate_energy.size());
    for (const RunningStats& g : per_gate_energy) {
      s.per_gate_energy.push_back(g.estimate());
    }
    s.per_gate_output_energy.reserve(per_gate_output_energy.size());
    for (const RunningStats& g : per_gate_output_energy) {
      s.per_gate_output_energy.push_back(g.estimate());
    }
    s.nets.reserve(net_prob.size());
    for (std::size_t n = 0; n < net_prob.size(); ++n) {
      s.nets.push_back({net_prob[n].estimate(), net_density[n].estimate()});
    }
    s.replications = energy.count();
    s.truncated_replications = truncated;
    s.total_events = total_events;
    s.measure_time = measure_time;
    s.replicate_energy = replicate_energy;
    s.scratch_high_water_bytes = scratch_high_water;
    return s;
  }
};

SimSummary monte_carlo_impl(const SimEngine& engine,
                            const MonteCarloOptions& options,
                            util::ThreadPool* pool) {
  require(options.replications >= 1,
          "monte_carlo: replications must be >= 1");

  const auto wall_start = std::chrono::steady_clock::now();
  util::ThreadPool local_pool(pool ? 1 : options.threads);
  util::ThreadPool& workers = pool ? *pool : local_pool;
  const std::uint64_t master_seed = options.sim.seed;
  const std::size_t count = static_cast<std::size_t>(options.replications);

  // A per-replicate poll on top of the engine's in-loop poll stops a
  // cancelled session between replications. Results are discarded
  // wholesale on unwind — the fold below never runs — so no partial
  // summary can be observed.
  std::vector<SimResult> results(count);
  const util::CancellationToken& cancel = engine.options().cancel;
  const bool cancellable = cancel.valid();
  workers.parallel_for(count, [&](std::size_t i) {
    if (cancellable) cancel.check("monte_carlo");
    thread_local ReplicationScratch scratch;
    engine.run(Rng::derive_stream(master_seed, i), scratch, results[i]);
  });
  Accumulators acc;
  for (const SimResult& r : results) acc.add(r);

  SimSummary summary = acc.summary(engine.options().measure_time);
  summary.elapsed_seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - wall_start)
                                .count();
  if (summary.elapsed_seconds > 0.0) {
    summary.events_per_sec =
        static_cast<double>(summary.total_events) / summary.elapsed_seconds;
    summary.replications_per_sec =
        static_cast<double>(summary.replications) / summary.elapsed_seconds;
  }
  return summary;
}

}  // namespace

SimSummary monte_carlo(const SimEngine& engine,
                       const MonteCarloOptions& options,
                       util::ThreadPool* pool) {
  return with_error_site("monte_carlo", [&] {
    return monte_carlo_impl(engine, options, pool);
  });
}

SimSummary monte_carlo(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const MonteCarloOptions& options) {
  const SimEngine engine(netlist, pi_stats, tech, options.sim);
  return monte_carlo(engine, options);
}

}  // namespace tr::sim
