#pragma once
// Server request schema (DESIGN.md Sec. 13.2).
//
// A request frame carries one JSON object mirroring the tr_opt option
// surface. Parsing is strict: unknown fields are rejected (a typoed
// "dedline_ms" must fail loudly, not silently run without a deadline),
// and every value is type- and range-checked with the same rules as the
// CLI's argument parsing. The daemon serves embedded/generated circuit
// specs only — file paths in a network request are refused, so a client
// cannot make the server read arbitrary local files.
//
// Recognised fields (all optional except that circuits/suite must name
// at least one circuit):
//   circuits   array of spec strings (classics / suite entries)
//   suite      "classic" | "table3" | "scaled" (appended to circuits)
//   scenario   "A" | "B"                        (default "A")
//   seed       non-negative integer             (default 1)
//   jobs       integer, 0 = hardware            (default 0)
//   threads_per_circuit  integer                (default 1)
//   objective  "minimize" | "maximize"          (default minimize)
//   model      "extended" | "output_only"       (default extended)
//   delay_budget  number >= 0 or null           (default null = off)
//   engine     "catalog" | "anneal"                (default catalog)
//   anneal_seed   non-negative integer          (default 1)
//   anneal_iters  integer >= 1, moves per gate  (default 256)
//   restrict_instance  bool                     (default false)
//   keep_going bool                             (default true)
//   deadline_ms  finite number >= 0 or null     (default null = none)
//   priority   integer; higher runs first       (default 0)
//   gate_configs  bool, emit per-gate arrays    (default true)
//   request_id non-empty string: idempotency key — the daemon replays
//              the stored response of a completed ID instead of
//              re-executing it (default absent = every submission runs)

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "opt/batch.hpp"
#include "util/json.hpp"

namespace tr::server {

struct OptimizeRequest {
  std::vector<std::string> circuits;
  char scenario = 'A';
  std::uint64_t seed = 1;
  opt::BatchOptions batch;  ///< cancel/progress wired by the service
  /// Absent = no deadline; present = finite, >= 0 (enforced at parse).
  std::optional<double> deadline_ms;
  int priority = 0;
  bool gate_configs = true;
  std::string request_id;  ///< empty = no idempotency key
};

/// Parses and validates a request document. Throws tr::Error
/// (ErrorCode::invalid_argument) with a "request: ..." message on any
/// schema violation; propagates the parser's "json: ..." errors
/// (ErrorCode::parse) for malformed JSON.
OptimizeRequest parse_request(std::string_view json_text);

/// Renders one progress frame payload:
///   {"type":"progress","index":I,"circuit":NAME,"status":STATUS}
std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result);

/// Renders one error frame payload:
///   {"type":"error","code":CODE,"site":SITE,"message":MESSAGE}
std::string render_error(const opt::CircuitError& error);

}  // namespace tr::server
