#pragma once
// Batch optimization driver (DESIGN.md Sec. 9).
//
// The paper's flow is batch-shaped: it reorders an entire benchmark
// suite per scenario. BatchOptimizer is the production entry point for
// that shape — it takes N mapped circuits that all reference one shared
// CellLibrary and optimizes them with two-level parallelism:
//
//   * circuit level: circuits fan out over a util::ThreadPool, each
//     worker owning one circuit end to end (timing, optimize, result);
//   * gate level: inside each circuit, opt::optimize() scores gates
//     concurrently with `threads_per_circuit` workers (default 1, so a
//     wide batch does not oversubscribe the machine; a batch of one can
//     instead spend every core inside the single optimize call).
//
// The shared library is the cache-sharing contract: its catalog cache is
// concurrency-safe and characterises each distinct structural form
// exactly once per batch, no matter how many circuits instantiate it or
// which worker asks first. The report carries the hit/miss delta of the
// run so callers can assert cache effectiveness.
//
// Determinism: every field of the report except the wall-clock
// measurements (elapsed_ms) and each circuit's threads_used is
// bit-identical for any `jobs` and `threads_per_circuit` values — circuits are independent, workers write
// disjoint slots, results are assembled in input order, and optimize()
// itself is deterministic by contract.
//
// Fault isolation (DESIGN.md Sec. 12.2): with keep_going (the default) a
// circuit that throws — malformed input, injected fault, bad_alloc,
// cancellation — becomes a structured per-circuit error record while
// every other circuit completes byte-identical to a run that never
// contained it. A failed or cancelled circuit is all-or-nothing: its
// netlist is restored from a pre-optimize snapshot and its result
// carries no partial numbers.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "boolfn/signal.hpp"
#include "celllib/library.hpp"
#include "celllib/tech.hpp"
#include "netlist/netlist.hpp"
#include "opt/optimizer.hpp"
#include "util/cancel.hpp"

namespace tr::opt {

/// Per-circuit outcome classification (JSON `status`, DESIGN.md
/// Sec. 12.2). `cancelled` is split from `error` because it reflects the
/// caller's budget, not the circuit's input — retrying a cancelled
/// circuit with a longer deadline is sound, retrying a parse error is
/// not.
enum class CircuitStatus : std::uint8_t { ok, error, cancelled };

/// Stable lowercase names, the JSON/report encoding of CircuitStatus.
const char* circuit_status_name(CircuitStatus status) noexcept;

/// Structured description of why a circuit produced no result.
struct CircuitError {
  ErrorCode code = ErrorCode::unknown;
  /// Pipeline location, outermost-first ("optimize/score"); empty when
  /// the exception carried no site annotations.
  std::string site;
  std::string message;
};

/// Builds a CircuitError from the in-flight exception. Must be called
/// inside a catch block; folds foreign exceptions into the taxonomy
/// (bad_alloc -> resource, std::exception -> unknown).
CircuitError describe_current_exception();

/// Per-circuit outcome, in batch input order. For a non-ok circuit only
/// `name`, `status`, `error` and `elapsed_ms` are meaningful — every
/// numeric field stays default-initialised (the all-or-nothing
/// contract: no partial numbers ever escape a failed circuit).
struct BatchCircuitResult {
  std::string name;
  CircuitStatus status = CircuitStatus::ok;
  std::optional<CircuitError> error;  ///< set iff status != ok
  int gates = 0;
  int primary_inputs = 0;
  int primary_outputs = 0;
  OptimizeReport report;  ///< incl. the Elmore critical paths
  double elapsed_ms = 0.0;  ///< wall clock of this circuit's optimize
};

/// One circuit of a batch job; the netlist is optimized in place. The
/// netlist must reference the batch's shared CellLibrary (enforced by
/// identity in BatchOptimizer::run), otherwise each circuit would
/// characterise into its own cache and the batch would share nothing.
struct BatchCircuit {
  std::string name;
  netlist::Netlist netlist;
  std::map<netlist::NetId, boolfn::SignalStats> pi_stats;
  /// Set when loading/preparing this circuit already failed (see
  /// make_scenario_circuit_guarded): the netlist is an empty placeholder
  /// and BatchOptimizer turns this record into the circuit's result
  /// without touching it, keeping batch input order intact.
  std::optional<CircuitError> load_error;
  /// Set by checkpoint resume (opt/checkpoint, DESIGN.md Sec. 15.2): the
  /// journaled result of a previous run, its committed configurations
  /// already re-applied to `netlist`. BatchOptimizer adopts the record
  /// verbatim instead of optimizing — the byte-identity contract relies
  /// on the journal holding the report's own circuit object.
  std::optional<BatchCircuitResult> resumed;
};

struct BatchOptions {
  /// Circuit-level workers; 0 = one per hardware thread, 1 = serial.
  int jobs = 0;
  /// Gate-level workers inside each optimize() call (the second level);
  /// 0 = one per hardware thread, each circuit on its own pool.
  /// Overrides OptimizeOptions::threads. Keep at 1 when the batch is
  /// wide; raise it for small batches of large circuits.
  int threads_per_circuit = 1;
  /// Per-circuit optimization settings (objective, model, delay budget,
  /// instance restriction). `opt.threads` is ignored.
  OptimizeOptions opt;
  /// Fault isolation: true (default) contains a throwing circuit as an
  /// error record and completes the rest; false rethrows the first
  /// failure out of run() after aborting the unclaimed circuits.
  bool keep_going = true;
  /// Cooperative cancellation/deadline for the whole batch, forwarded
  /// into every optimize() call. Circuits that observe it report
  /// CircuitStatus::cancelled; already-finished circuits keep their
  /// results.
  util::CancellationToken cancel;
  /// Called once per circuit as it completes (ok, error or cancelled),
  /// with the batch index and the finished result record — the server's
  /// streaming-progress hook (DESIGN.md Sec. 13.2). Invoked from the
  /// circuit's worker thread, so the callback must be thread-safe;
  /// completion *order* is scheduling-dependent and explicitly outside
  /// the determinism contract (the assembled report is not). With
  /// fail-fast, a circuit that rethrows reports no progress.
  std::function<void(std::size_t, const BatchCircuitResult&)> progress;
  /// Durability hook (opt/checkpoint): called after each circuit that
  /// was *freshly* optimized — never for resumed or non-ok circuits —
  /// with the circuit (for config lookups) and its finished result.
  /// Invoked from the worker thread; must be thread-safe. Runs before
  /// `progress`, so a progress frame implies the entry is durable.
  std::function<void(std::size_t, const BatchCircuit&,
                     const BatchCircuitResult&)>
      journal;
};

struct BatchReport {
  std::vector<BatchCircuitResult> circuits;  ///< batch input order
  int circuits_ok = 0;
  int circuits_failed = 0;     ///< status == error
  int circuits_cancelled = 0;  ///< status == cancelled
  /// Aggregates below sum over ok circuits only.
  int gates_total = 0;
  int gates_changed = 0;
  double model_power_before = 0.0;  ///< sum over circuits [W]
  double model_power_after = 0.0;
  /// Catalog-cache delta of this run (requires the batch to be the
  /// library's only concurrent user for the delta to be attributable).
  celllib::CatalogCacheStats cache;
  int jobs = 0;            ///< circuit-level workers actually used
  double elapsed_ms = 0.0; ///< wall clock of the whole batch
};

class BatchOptimizer {
public:
  /// `library` is the shared cache carrier; it must outlive the
  /// optimizer and every batch netlist.
  BatchOptimizer(const celllib::CellLibrary& library,
                 const celllib::Tech& tech, BatchOptions options = {});

  /// Optimizes every circuit of `batch` in place and reports per-circuit
  /// and aggregate results. Throws tr::Error when a netlist references a
  /// different library than the shared one. With keep_going (default), a
  /// throwing circuit becomes an error/cancelled record — its netlist
  /// restored to the incoming configuration — and the other circuits'
  /// results are byte-identical to a batch that never contained it; with
  /// fail-fast the first exception aborts the remaining unclaimed
  /// circuits and is rethrown.
  BatchReport run(std::vector<BatchCircuit>& batch) const;

  const BatchOptions& options() const noexcept { return options_; }

private:
  const celllib::CellLibrary* library_;
  celllib::Tech tech_;
  BatchOptions options_;
};

/// Deterministic per-circuit seed for scenario statistics: an FNV-1a mix
/// of the master seed and the circuit name, so every circuit of a batch
/// draws an independent stream while the whole batch stays reproducible
/// from one --seed value.
std::uint64_t circuit_seed(std::uint64_t master_seed, const std::string& name);

/// Wraps a netlist as a BatchCircuit with scenario statistics attached:
/// scenario 'A' draws per-input statistics from circuit_seed(master_seed,
/// name); scenario 'B' uses the fixed latch statistics (seed unused).
/// The circuit name is the netlist's name.
BatchCircuit make_scenario_circuit(netlist::Netlist netlist, char scenario,
                                   std::uint64_t master_seed);

/// Fault-isolating wrapper for batch assembly: runs `loader` (parse a
/// file, generate a netlist, ...) and wraps the result like
/// make_scenario_circuit (a successful load keeps the netlist's own
/// name). When the loader or the statistics generation throws, returns
/// a placeholder circuit — an empty netlist bound to `library` under
/// `name` — whose load_error carries the structured description, so one
/// unreadable file cannot abort assembling the rest of the batch.
BatchCircuit make_scenario_circuit_guarded(
    const std::string& name, char scenario, std::uint64_t master_seed,
    const celllib::CellLibrary& library,
    const std::function<netlist::Netlist()>& loader);

}  // namespace tr::opt
