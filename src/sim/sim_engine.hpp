#pragma once
// Reusable switch-level simulation engine (DESIGN.md Sec. 8.1; hot-path
// architecture Sec. 10) — the library's one event loop.
//
// Construction does all the per-netlist work once — net levelization,
// the CTMC rates of every primary-input process, and per gate the H/G
// path functions, node capacitances and Elmore pin delays read off the
// catalog holding its configuration (CellLibrary::catalog_slot; no gate
// graph is built) — and flattens everything the event loop touches into
// structure-of-arrays tables: single-word truth tables, node masks by
// input minterm (one table per (catalog, configuration) pair), CSR
// fanout arcs with per-arc delays, per-node transition energies. After
// that the engine is immutable; `run(seed)` executes one independent
// replication whose mutable state lives in a ReplicationScratch
// (byte-valued net state, per-gate records holding each gate's internal
// nodes as one bitmask, the indexed event scheduler), so any number of
// replications may run concurrently on a thread pool, the result of a
// replication is a pure function of its seed, and a scratch reused
// across replications makes steady-state replication allocation-free.
//
// The tables use the packed event encoding (DESIGN.md Sec. 10.1): a
// circuit with a gate wider than 6 inputs, a gate with more internal
// nodes than ReplicationScratch::max_gate_nodes, or deeper than
// EventScheduler::max_level levels is refused at construction with an
// invalid_argument tr::Error naming the gate. The pre-rewrite event loop
// the engine is pinned bit-identical against lives with the tests
// (tests/oracle/reference_sim.hpp). Monte-Carlo replication with
// confidence intervals is layered on top in sim/monte_carlo.hpp.

#include <cstdint>
#include <map>
#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/switch_sim.hpp"

namespace tr::sim {

/// Reusable per-replication state: flat arrays for every piece of
/// mutable simulation state plus the event scheduler. A scratch is
/// owned by exactly one thread at a time (monte_carlo hands each worker
/// its own and reuses it across that worker's replications); reuse keeps
/// every arena's capacity, so replications after warmup allocate nothing
/// (DESIGN.md Sec. 10.2). Default-constructed scratches adapt to any
/// engine. Members are an implementation detail of SimEngine — public
/// only because the hot-path runner lives in sim_engine.cpp.
struct ReplicationScratch {
  /// Internal-node values of one gate: bit k is the gate's k-th internal
  /// node in ascending GateGraph id order.
  using NodeMask = std::uint16_t;
  static constexpr int max_gate_nodes = 8 * sizeof(NodeMask);

  /// Mutable per-gate state, one cache-line-friendly record per gate.
  struct GateMut {
    std::uint64_t input_minterm = 0;
    std::uint64_t pending_seq = 0;  ///< seq of the valid pending commit
    NodeMask node_state = 0;        ///< internal-node values
    std::uint8_t pending_flag = 0;
    std::uint8_t pending_value = 0;
  };

  /// Per-net observation accumulators, one record per net so a net
  /// change touches one cache line. Net *values* stay in their own dense
  /// byte array (not in this record, and not std::vector<bool>): the
  /// event loop reads values far more often than it records changes, and
  /// the byte array keeps that working set L1-sized.
  struct NetObs {
    double last_change = 0.0;
    double ones_time = 0.0;
    std::uint64_t transitions = 0;
  };

  std::vector<std::uint8_t> net_value;       ///< per net (byte, not bit)
  std::vector<NetObs> net_obs;               ///< per net
  std::vector<GateMut> gate_mut;             ///< per gate
  EventScheduler scheduler;

  /// Bytes of owned storage (capacities, not sizes) — the high-water
  /// figure surfaced as SimResult::scratch_bytes.
  std::size_t high_water_bytes() const noexcept;
};

class SimEngine {
public:
  /// Validates the netlist and options and precomputes all simulation
  /// tables. `pi_stats` must cover every primary input; the netlist,
  /// tech and library must outlive the engine (the statistics are
  /// copied, so `pi_stats` need not). Throws tr::Error
  /// (invalid_argument) for a circuit outside the packed event encoding:
  /// a gate with more than 6 inputs or more than
  /// ReplicationScratch::max_gate_nodes internal nodes, or more than
  /// EventScheduler::max_level levels.
  SimEngine(const netlist::Netlist& netlist,
            const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
            const celllib::Tech& tech, const SimOptions& options);

  /// One independent replication driven by `seed`. Thread-safe and
  /// deterministic: the engine is immutable after construction and every
  /// run owns its mutable state, so every SimResult field except the
  /// wall-clock diagnostics depends only on `seed` (never on which
  /// thread runs it or on concurrent runs).
  SimResult run(std::uint64_t seed) const;

  /// Same, reusing a caller-owned scratch across calls (the scratch must
  /// not be shared between concurrent runs).
  SimResult run(std::uint64_t seed, ReplicationScratch& scratch) const;

  /// Zero-allocation steady state: reuses both the scratch and the
  /// result's vectors. `result` may be default-constructed; every field
  /// is (re)written.
  void run(std::uint64_t seed, ReplicationScratch& scratch,
           SimResult& result) const;

  /// Replication with the options' own seed (the classic simulate()).
  SimResult run() const { return run(options_.seed); }

  const SimOptions& options() const noexcept { return options_; }
  const netlist::Netlist& netlist() const noexcept { return netlist_; }

private:
  /// Immutable continuous-time Markov input process parameters.
  struct PiProcess {
    double rate_up = 0.0;    ///< 0 -> 1 rate
    double rate_down = 0.0;  ///< 1 -> 0 rate
    double prob = 0.0;       ///< equilibrium P(1), initial-state draw
    double energy = 0.0;     ///< J per transition of the PI's load
  };

  struct EventLoop;  // the event loop (sim_engine.cpp)

  void build_pis(
      const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats);
  void build_gates();

  const netlist::Netlist& netlist_;
  const celllib::Tech& tech_;
  SimOptions options_;

  std::vector<PiProcess> pi_;               ///< indexed by NetId
  std::vector<netlist::NetId> pi_order_;    ///< PIs in RNG draw order
  std::vector<netlist::GateId> topo_order_;

  // Hot-path tables (DESIGN.md Sec. 10.2): flat cache-line-oriented
  // images of the netlist's gates, sized so the event loop reads nothing
  // but these arrays. Truth tables are single 64-bit words (<= 6 input
  // pins); each mask table is 2^inputs entries indexed by minterm.
  struct GateHot {
    std::uint64_t out_fn = 0;       ///< output function, minterm-indexed
    std::uint64_t level_order = 0;  ///< net level << EventScheduler::seq_bits
    std::uint64_t mask_begin = 0;   ///< first of the gate's NodeMasks
    std::uint32_t node_begin = 0;   ///< first of the gate's node energies
    std::int32_t out_net = -1;
    double out_energy = 0.0;  ///< J per output transition
  };
  /// Per (mask table, minterm): the internal nodes with a path to vdd (h)
  /// and to vss (g); a node in neither keeps its value.
  struct NodeMasks {
    ReplicationScratch::NodeMask h = 0;
    ReplicationScratch::NodeMask g = 0;
  };
  struct Arc {
    double delay = 0.0;            ///< Elmore pin delay of (gate, pin) [s]
    std::uint32_t gate_pin = 0;    ///< gate << 3 | pin
  };

  std::vector<GateHot> flat_gate_;           ///< per gate
  std::vector<NodeMasks> flat_mask_;         ///< per (table, minterm)
  std::vector<double> flat_node_energy_;     ///< J per node transition
  std::vector<std::uint32_t> flat_in_off_;   ///< [gates+1] input CSR
  std::vector<std::int32_t> flat_in_net_;    ///< per input pin
  std::vector<std::uint32_t> flat_arc_off_;  ///< [nets+1] fanout CSR
  std::vector<Arc> flat_arc_;                ///< per arc
  double pi_rate_sum_ = 0.0;  ///< total equilibrium PI toggle rate [1/s]
  int scheduler_buckets_ = 0; ///< calendar size
  double scheduler_width_ = 0.0;
};

}  // namespace tr::sim
