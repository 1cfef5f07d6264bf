#pragma once
// Checkpoint/resume journaling for batch optimization (DESIGN.md
// Sec. 15.2).
//
// Long batches (the syn1000..syn8000 tier, budgeted sweeps) lose every
// completed circuit to a SIGKILL/OOM/reboot without durable progress.
// A CheckpointJournal fixes that: each circuit that completes with
// status `ok` becomes one crash-consistent journal entry (util/journal:
// fsync'd temp file + atomic rename) that frames the report's own
// circuit object (opt/batch_report) with a version and the batch index.
// A resumed run reads each object back onto a freshly loaded netlist
// (read_circuit_object) and skips the optimization work entirely.
//
// The byte-identity contract: a `--checkpoint DIR --resume` run emits
// output byte-identical to an uninterrupted run (under --no-timing
// --no-cache-stats, the same determinism carve-outs as the daemon —
// wall clock and cache deltas are nondeterministic by nature). The
// shortest-round-trip JsonWriter makes parse-back reproduce every
// IEEE-754 value, and the netlist reloads deterministically.
//
// Compatibility is guarded by a manifest of the entry version and the
// option table's shapes_output entries (opt/run_options.hpp), written
// on the fresh run and byte-compared on resume — resuming under
// different options is an error, never a silently mixed report.
//
// Damage tolerance: a torn/truncated/bit-flipped/wrong-checksum entry
// (the crash window, disk rot) is detected by the journal frame,
// reported as a JournalWarning through the ErrorCode taxonomy, and the
// circuit is simply re-optimized — corrupt progress is never trusted.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "opt/batch.hpp"
#include "opt/run_options.hpp"

namespace tr::opt::checkpoint {

/// One non-fatal journal problem: a damaged or stale entry discovered
/// while loading (the circuit is re-run), or a failed entry write
/// (the run completed but that circuit is not resumable).
struct JournalWarning {
  std::string file;  ///< entry file name (bare, not a path)
  ErrorCode code = ErrorCode::parse;
  std::string message;
};

/// The manifest document: the run fingerprint, rendered
/// deterministically from the shapes_output entries of the option table
/// (opt/run_options.hpp).
std::string render_manifest(const RunOptions& run);

/// The entry file name of batch index `index` ("circuit-0003-alu2.jnl");
/// the zero-padded index keeps duplicate circuit names collision-free
/// and directory listings in batch order.
std::string entry_name(std::size_t index, const std::string& circuit_name);

class CheckpointJournal {
public:
  /// Opens the journal directory. Fresh mode (`resume == false`)
  /// creates the directory and writes `manifest`; an existing manifest
  /// is an error (refusing to silently mix two runs' entries). Resume
  /// mode requires the directory and manifest to exist and the manifest
  /// bytes to equal `manifest`. Throws tr::Error on violations
  /// (invalid_argument) and on I/O failure (resource).
  CheckpointJournal(std::string dir, bool resume, std::string manifest);

  /// Resume-loads every readable entry into `batch`: checks its version
  /// and index, reads its circuit object back onto the loaded circuit
  /// and fills BatchCircuit::resumed. Damaged or stale entries become
  /// warnings and their circuits are left to re-run. Returns the number
  /// of circuits resumed.
  int load(std::vector<BatchCircuit>& batch);

  /// Journals one completed circuit (call only for status == ok).
  /// Thread-safe; write failures are collected as warnings — the batch
  /// result stands even when durability could not be provided, the
  /// caller surfaces the warning instead.
  void record(std::size_t index, const BatchCircuit& circuit,
              const BatchCircuitResult& result);

  /// Problems collected by load() and record(), in discovery order.
  std::vector<JournalWarning> warnings() const;

  const std::string& dir() const noexcept { return dir_; }

private:
  std::string dir_;
  mutable std::mutex mutex_;
  std::vector<JournalWarning> warnings_;
};

}  // namespace tr::opt::checkpoint
