#pragma once
// Machine-readable rendering of batch results (DESIGN.md Sec. 9.3).
//
// One JSON document per batch. The renderer is shared by the tr_opt CLI
// and the golden-file regression tests, so the schema is the CLI's
// output contract: every field except the wall-clock block is a pure
// function of (circuits, options, seed), byte-identical across runs and
// across --jobs values. Goldens disable the wall-clock block with
// `include_timing = false`.
//
// This module owns the per-circuit record both ways: a checkpoint entry
// (opt/checkpoint) frames the circuit object, read back by
// read_circuit_object. Daemon error frames reuse write_error_members.

#include <iosfwd>

#include "opt/batch.hpp"

namespace tr::util {
class JsonWriter;
struct JsonValue;
}  // namespace tr::util

namespace tr::opt {

struct BatchJsonOptions {
  /// Emit the nondeterministic wall-clock fields (per-circuit and batch
  /// elapsed_ms, worker counts). Off for byte-stable golden output.
  bool include_timing = true;
  /// Emit the per-gate configuration arrays (committed reorderings of
  /// every changed gate). Off shrinks reports for very large batches.
  bool include_gate_configs = true;
  /// Emit the catalog_cache block. The batch CLI keeps it on; server
  /// responses turn it off because hit/miss deltas against a shared warm
  /// cache depend on what other requests ran concurrently — the one
  /// field that would break the byte-identical-to-a-serial-run contract
  /// (DESIGN.md Sec. 13.3). The server reports cumulative cache
  /// counters in its drain-time metrics dump instead.
  bool include_cache_stats = true;
};

/// Writes the whole-batch JSON document. `batch` must be the vector the
/// report was produced from (same order); the post-optimization netlists
/// supply the per-gate committed configurations.
void write_batch_json(const std::vector<BatchCircuit>& batch,
                      const BatchReport& report, const BatchOptions& options,
                      std::ostream& out, const BatchJsonOptions& json = {});

/// Writes code, retryable, site and message into the open object.
void write_error_members(util::JsonWriter& w, const CircuitError& error);

/// Writes one circuit's object (an entry of the "circuits" array).
void write_circuit_object(util::JsonWriter& w, const BatchCircuit& circuit,
                          const BatchCircuitResult& result,
                          const BatchJsonOptions& json);

/// Reads an ok circuit object written with `include_gate_configs` back
/// onto `circuit`, freshly loaded: checks the name and gate count and
/// re-applies each "gate_configs" entry by "output", "cell" and
/// "config". Throws tr::Error, `circuit` untouched, on any misfit.
BatchCircuitResult read_circuit_object(const util::JsonValue& object,
                                       BatchCircuit& circuit);

/// Writes one circuit's JSON document (the same object shape as the
/// entries of the whole-batch document's "circuits" array).
void write_circuit_json(const BatchCircuit& circuit,
                        const BatchCircuitResult& result, std::ostream& out,
                        const BatchJsonOptions& json = {});

}  // namespace tr::opt
