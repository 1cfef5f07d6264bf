#pragma once
// Replicated Monte-Carlo simulation with confidence intervals
// (DESIGN.md Sec. 8.2).
//
// N independent replications of SimEngine::run (the library's one event
// loop, one replication per call) across a util::ThreadPool; replicate k
// is driven by the seed stream
// Rng::derive_stream(master_seed, k), and the Welford reduction into the
// summary always happens in replicate-index order, so a SimSummary is
// bit-identical for 1 and N worker threads. The replication count is
// fixed: the paper's column S pairs replicate k of two netlists on one
// seed stream, which an adaptive count could not keep.
//
// Each worker thread owns one ReplicationScratch reused across all the
// replications it executes (and across monte_carlo calls on the same
// pool), so steady-state replication allocates nothing (DESIGN.md
// Sec. 10.2). Only the wall-clock throughput diagnostics of the summary
// depend on this — every estimate is a pure function of the options.

#include <cstdint>
#include <map>
#include <vector>

#include "sim/sim_engine.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace tr::sim {

struct MonteCarloOptions {
  /// Per-replication simulation options; `sim.seed` is the master seed
  /// every replicate stream derives from.
  SimOptions sim;
  int replications = 16;
  /// Worker threads; <= 0 selects one per hardware thread. Never affects
  /// the summary values, only wall time.
  int threads = 0;
};

/// Mean/spread of one net's observed statistics across replications.
struct NetEstimate {
  Estimate prob;
  Estimate density;
};

/// Streaming (Welford) statistics over N independent replications.
struct SimSummary {
  Estimate energy;                ///< total switching energy per window [J]
  Estimate power;                 ///< [W]
  Estimate output_node_energy;    ///< [J]
  Estimate internal_node_energy;  ///< [J]
  Estimate pi_energy;             ///< [J]
  Estimate gate_energy;           ///< energy minus PI share, per window [J]
  std::vector<Estimate> per_gate_energy;  ///< indexed by GateId [J]
  /// Output-node share of per_gate_energy, the simulated side of the
  /// exact output-node model bridge (DESIGN.md Sec. 2).
  std::vector<Estimate> per_gate_output_energy;
  std::vector<NetEstimate> nets;          ///< indexed by NetId

  std::size_t replications = 0;
  /// Replications that hit max_events; any non-zero count means the
  /// estimates mix complete and partial windows — consumers that need a
  /// complete window (the differential validation suite) must fail.
  std::size_t truncated_replications = 0;
  std::uint64_t total_events = 0;
  double measure_time = 0.0;  ///< per-replication window [s]
  /// Per-replicate total energy, in replicate order [J] — the raw sample
  /// behind `energy`, kept for paired comparisons and diagnostics.
  std::vector<double> replicate_energy;

  // Throughput diagnostics (DESIGN.md Sec. 10.4): wall-clock figures,
  // excluded from the determinism contract (every estimate above is a
  // pure function of the options; these depend on machine and threads).
  double elapsed_seconds = 0.0;        ///< wall time of the whole call [s]
  double events_per_sec = 0.0;         ///< total_events / elapsed_seconds
  double replications_per_sec = 0.0;   ///< replications / elapsed_seconds
  /// Largest ReplicationScratch footprint any replicate reported.
  std::size_t scratch_high_water_bytes = 0;
};

/// Runs the replications on `pool` (or a private pool when null).
SimSummary monte_carlo(const SimEngine& engine,
                       const MonteCarloOptions& options,
                       util::ThreadPool* pool = nullptr);

/// Convenience: builds the engine and runs.
SimSummary monte_carlo(
    const netlist::Netlist& netlist,
    const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
    const celllib::Tech& tech, const MonteCarloOptions& options);

}  // namespace tr::sim
