#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

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

/// Runs replicates [first, first + count) in parallel and folds them into
/// `acc` in index order. `results` is a recycled slot pool: slots keep
/// their vector capacities batch over batch, and each worker thread
/// reuses one thread-local ReplicationScratch across every replication
/// it runs, so steady-state replication does not allocate
/// (DESIGN.md Sec. 10.2).
void run_batch(const SimEngine& engine, util::ThreadPool& pool,
               std::uint64_t master_seed, std::size_t first,
               std::size_t count, Accumulators& acc,
               std::vector<SimResult>& results) {
  if (results.size() < count) results.resize(count);
  // Per-replicate poll on top of the engine's in-loop poll, so a
  // cancelled session stops between replications without finishing the
  // batch. Replications are discarded wholesale on unwind — the fold
  // below never runs — so no partial summary can be observed.
  const util::CancellationToken& cancel = engine.options().cancel;
  const bool cancellable = cancel.valid();
  pool.parallel_for(count, [&](std::size_t i) {
    if (cancellable) cancel.check("monte_carlo");
    thread_local ReplicationScratch scratch;
    engine.run(Rng::derive_stream(master_seed, first + i), scratch,
               results[i]);
  });
  for (std::size_t i = 0; i < count; ++i) acc.add(results[i]);
}

}  // namespace

namespace {

SimSummary monte_carlo_impl(const SimEngine& engine,
                            const MonteCarloOptions& options,
                            util::ThreadPool* pool) {
  require(options.replications >= 1,
          "monte_carlo: replications must be >= 1");
  require(options.target_rel_ci >= 0.0,
          "monte_carlo: target_rel_ci must be >= 0");
  const bool adaptive = options.target_rel_ci > 0.0;
  if (adaptive) {
    require(options.batch_size >= 1, "monte_carlo: batch_size must be >= 1");
    require(options.max_replications >= options.replications,
            "monte_carlo: max_replications must be >= replications");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  util::ThreadPool local_pool(pool ? 1 : options.threads);
  util::ThreadPool& workers = pool ? *pool : local_pool;
  const std::uint64_t master_seed = options.sim.seed;

  Accumulators acc;
  std::vector<SimResult> results;
  std::size_t next = 0;
  run_batch(engine, workers, master_seed, next,
            static_cast<std::size_t>(options.replications), acc, results);
  next += static_cast<std::size_t>(options.replications);

  bool target_reached = false;
  if (adaptive) {
    const auto met = [&] {
      const Estimate e = acc.energy.estimate();
      return e.count >= 2 &&
             e.ci95 <= options.target_rel_ci * std::abs(e.mean);
    };
    target_reached = met();
    const std::size_t cap =
        static_cast<std::size_t>(options.max_replications);
    while (!target_reached && next < cap) {
      const std::size_t batch =
          std::min(static_cast<std::size_t>(options.batch_size), cap - next);
      run_batch(engine, workers, master_seed, next, batch, acc, results);
      next += batch;
      target_reached = met();
    }
  }

  SimSummary summary = acc.summary(engine.options().measure_time);
  summary.target_reached = target_reached;
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

SimSummary monte_carlo(const netlist::Netlist& netlist,
                       const PiStatsTable& pi_stats,
                       const celllib::Tech& tech,
                       const MonteCarloOptions& options) {
  const SimEngine engine(netlist, pi_stats, tech, options.sim);
  return monte_carlo(engine, options);
}

SimSummary monte_carlo(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const MonteCarloOptions& options) {
  return monte_carlo(netlist,
                     PiStatsTable(netlist.net_count(), pi_stats), tech,
                     options);
}

}  // namespace tr::sim
