#pragma once
// The paper's power-optimization algorithm (Sec. 4, Fig. 3), run by a
// three-layer configuration-scoring engine (DESIGN.md Sec. 7).
//
// Signal statistics are configuration-invariant (Sec. 4.2), so the
// algorithm splits into one cheap topological pass that propagates
// probabilities and transition densities, a table build in which every
// gate looks up the precomputed reordering catalog of its cell
// (celllib::ReorderCatalog, cached in the CellLibrary) and scores all
// candidate configurations with the word-parallel boolean kernel (each
// distinct catalog node once, then a per-configuration gather), and one
// greedy walk that commits a configuration per gate
// (search::IncrementalScorer and search::greedy_seed, opt/search.hpp).
// Gates are scored concurrently on a small thread pool; results are
// deterministic regardless of thread count (per-gate tie-breaking keeps
// enumeration order, the report is assembled in GateId order and
// accumulated in topological order).
//
// Without a delay budget every choice is the gate's own optimum. A budget
// only adds per-net arrival ceilings to the walk: a gate's admissible set
// then depends on its fan-in gates' committed configurations. The
// pre-catalog per-candidate graph-rebuild engine lives on only as the
// tests' oracle (tests/oracle/); the parity suite asserts bit-identical
// reports.

#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "boolfn/minterm_weights.hpp"
#include "boolfn/signal.hpp"
#include "celllib/catalog.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "power/circuit_power.hpp"
#include "util/cancel.hpp"

namespace tr::opt {

/// Minimise for the paper's "best" netlists; maximise builds the "worst"
/// ordering the evaluation compares against (Table 3: "best case with
/// regard to worst case").
enum class Objective { minimize_power, maximize_power };

/// Stable lowercase enum spellings: the values of the `objective` and
/// `model` options (opt/run_options.hpp) and of the report header (which
/// appends "_power" to the objective).
const char* objective_name(Objective objective) noexcept;
const char* model_name(power::ModelKind model) noexcept;

/// Inverses of the *_name spellings — the one parser of each option
/// value. Throw tr::Error (invalid_argument) naming the accepted values
/// for anything else.
Objective objective_from_name(std::string_view name);
power::ModelKind model_from_name(std::string_view name);

struct OptimizeOptions {
  Objective objective = Objective::minimize_power;
  /// Gate model used for scoring; output_only is the ablation baseline.
  power::ModelKind model = power::ModelKind::extended;

  /// Paper conclusion (b): when set, arrival budgeting is enabled.
  /// Static timing of the incoming netlist fixes a per-net arrival
  /// budget of (1 + this fraction) x the original arrival; during the
  /// traversal a candidate configuration is admissible only if the
  /// gate's output still arrives within its budget given the *actual*
  /// (already-optimized) input arrivals. The incoming configuration
  /// always qualifies, and by induction the final critical path is
  /// within (1 + fraction) of the original — 0.0 is a legitimate
  /// zero-slack budget that reproduces the paper's "power reductions
  /// without increasing the delay of the circuit", distinct from
  /// nullopt (the default), which disables the constraint entirely.
  /// The value must be finite and >= 0 (enforced by optimize()).
  /// The walk checking the ceilings is sequential: a gate's admissible
  /// set depends on its fan-in gates' committed configurations.
  std::optional<double> max_circuit_delay_increase;

  /// Paper conclusion (a): when true, only configurations realisable by
  /// the *same* sea-of-gates layout instance as the incoming one are
  /// explored (pure input reordering). The gap to the unconstrained
  /// optimum measures the value of adding reordered instances to the
  /// library.
  bool restrict_to_instance = false;

  /// Worker threads for the gate-parallel scoring phase; 0 = one per
  /// hardware thread, 1 = serial.
  int threads = 0;

  /// Cooperative cancellation, polled at gate granularity. A cancelled
  /// run throws tr::Cancelled before any configuration is committed, so
  /// the caller never observes a partially optimized circuit with
  /// result numbers attached. The default token is inert.
  util::CancellationToken cancel;
};

/// Per-gate outcome of the exhaustive exploration.
struct GateDecision {
  netlist::GateId gate = -1;
  int config_count = 0;       ///< reorderings explored
  double chosen_power = 0.0;  ///< model power of the committed config [W]
  double best_power = 0.0;    ///< min over configs [W]
  double worst_power = 0.0;   ///< max over configs [W]
  double original_power = 0.0;  ///< power of the incoming config [W]
  bool changed = false;         ///< configuration was rewritten
};

struct OptimizeReport {
  std::vector<GateDecision> decisions;  ///< one per gate, GateId order
  double model_power_before = 0.0;  ///< circuit gate power, incoming configs
  double model_power_after = 0.0;   ///< circuit gate power, committed configs
  int gates_changed = 0;
  /// Candidates rejected by the delay constraint (0 when disabled).
  int configs_rejected_by_delay = 0;
  /// Candidates skipped by the instance restriction (0 when disabled).
  int configs_rejected_by_instance = 0;
  /// Gate-level worker threads the scoring phase actually used.
  int threads_used = 1;
  /// Elmore critical path [s] under the incoming and the committed
  /// configurations, read off the catalogs' pin-delay memo
  /// (search::arrivals); field-exactly delay::circuit_delay's.
  double critical_path_before = 0.0;
  double critical_path_after = 0.0;
};

/// Reusable scoring buffers. One scratch per thread amortises the
/// probability-weight construction and the input-statistics staging across
/// every candidate of every gate the thread scores: once its buffers have
/// grown to the largest catalog, score_catalog allocates nothing.
struct ScoreScratch {
  boolfn::MintermWeights weights;
  std::vector<double> probs;
  std::vector<double> node_powers;  ///< per catalog pool node
  std::vector<double> powers;       ///< per configuration
};

/// Scores every configuration of `catalog` under the given input
/// statistics and external load. Returns the model power per
/// configuration, in catalog (= enumeration) order, backed by
/// scratch.powers. Two steps: every distinct pool node
/// (ReorderCatalog::nodes()) is evaluated once, then each configuration
/// sums its nodes' powers in model node order. A node's power is a pure
/// function of its tables, capacitance, inputs and weights, so the result
/// is bit-identical to scoring each configuration's graph with
/// evaluate_gate_power (the output node alone for output_only).
const std::vector<double>& score_catalog(
    const celllib::ReorderCatalog& catalog,
    const std::vector<boolfn::SignalStats>& inputs, double external_load,
    const celllib::Tech& tech, power::ModelKind model, ScoreScratch& scratch);

/// Scores every reordering of `config` under the given input statistics
/// and external load; returns (configuration, model power) pairs in
/// enumeration order. Builds a one-off catalog; callers scoring the same
/// cell repeatedly should go through CellLibrary::catalog + score_catalog.
std::vector<std::pair<gategraph::GateTopology, double>> score_configurations(
    const gategraph::GateTopology& config,
    const std::vector<boolfn::SignalStats>& inputs, double external_load,
    const celllib::Tech& tech,
    power::ModelKind model = power::ModelKind::extended);

/// Optimizes `netlist` in place (paper Fig. 3). `pi_stats` must cover all
/// primary inputs. Deterministic: ties keep the first configuration in
/// enumeration order, independent of options.threads.
OptimizeReport optimize(netlist::Netlist& netlist,
                        const std::map<netlist::NetId, boolfn::SignalStats>& pi_stats,
                        const celllib::Tech& tech,
                        const OptimizeOptions& options = {});

}  // namespace tr::opt
