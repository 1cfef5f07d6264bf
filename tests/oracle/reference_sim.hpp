#pragma once
// Reference switch-level event loop (DESIGN.md Sec. 10.5).
//
// The pre-rewrite simulation loop — std::priority_queue of padded
// events, std::vector<bool> state, per-gate node vectors and TruthTable
// lookups — kept verbatim as the oracle the library's SimEngine is
// pinned bit-identical against (tests/test_sim_differential.cpp) and the
// baseline the BENCH_sim speedup ratio is measured from
// (bench/perf_sim_suite.cpp). It is not part of the shipped library.
//
// Same semantics and RNG draw order as sim::SimEngine: run(seed) equals
// SimEngine::run(seed) in every SimResult field except the wall-clock
// diagnostics, which the oracle leaves at zero.

#include <cstdint>
#include <map>
#include <vector>

#include "boolfn/signal.hpp"
#include "boolfn/truth_table.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "sim/switch_sim.hpp"

namespace tr::oracle {

class ReferenceSim {
public:
  /// Validates the netlist and options like SimEngine and precomputes the
  /// per-gate tables. The netlist, tech and library must outlive the
  /// oracle.
  ReferenceSim(const netlist::Netlist& netlist,
               const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
               const celllib::Tech& tech, const sim::SimOptions& options);

  /// One replication driven by `seed`; thread-safe.
  sim::SimResult run(std::uint64_t seed) const;

private:
  /// Immutable per-gate simulation tables.
  struct GateTables {
    boolfn::TruthTable output_fn{0};
    std::vector<boolfn::TruthTable> h_fns;  ///< per internal node
    std::vector<boolfn::TruthTable> g_fns;
    std::vector<double> internal_caps;  ///< per internal node [F]
    double output_cap = 0.0;            ///< diffusion + external load [F]
    std::vector<double> pin_delay;
    int level = 0;  ///< topological level of the output net
  };

  /// Immutable continuous-time Markov input process parameters.
  struct PiProcess {
    double rate_up = 0.0;    ///< 0 -> 1 rate
    double rate_down = 0.0;  ///< 1 -> 0 rate
    double load_cap = 0.0;   ///< wire + fanout pin capacitance [F]
    double prob = 0.0;       ///< equilibrium P(1), initial-state draw
  };

  struct Replication;  // mutable state of one run (reference_sim.cpp)

  void build_gates();
  void build_pis(
      const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats);

  const netlist::Netlist& netlist_;
  const celllib::Tech& tech_;
  sim::SimOptions options_;

  std::vector<GateTables> gates_;          ///< indexed by GateId
  std::vector<PiProcess> pi_;              ///< indexed by NetId
  std::vector<netlist::NetId> pi_order_;   ///< PIs in RNG draw order
  std::vector<netlist::GateId> topo_order_;
};

}  // namespace tr::oracle
