#pragma once
// Blocking client for the optimization daemon (DESIGN.md Sec. 13.1,
// Sec. 15.4): one connection per attempt, used by `tr_opt --connect`,
// the smoke suite and the determinism hammer test. The exchange is
// deliberately dumb — it frames the request, streams progress to a
// callback and hands back the terminal payload verbatim, so byte-level
// comparisons against serial tr_opt output see exactly what travelled
// the wire.
//
// run_request is one attempt that blocks forever. run_request_with_retry
// adds the three things a client surviving daemon restarts needs:
//
//   * timeouts — a per-attempt bound on connect and on each read, so a
//     hung daemon surfaces as a retryable failure instead of a stuck
//     client;
//   * bounded retries with exponential backoff — transport failures
//     (ErrorCode::disconnect and friends, see is_retryable) and
//     *retryable* server error responses are re-attempted up to
//     max_retries times, with delays doubling from base_backoff_ms and
//     a deterministic seeded jitter so retry storms decorrelate yet
//     tests replay exactly;
//   * idempotency keys — callers put a request_id into the request
//     document; the daemon replays the stored response of a completed
//     ID instead of re-executing, so "retry until success" composes
//     with "execute at most once" even when the first response was
//     lost in flight.
//
// Non-retryable failures (parse errors, invalid arguments — retrying
// cannot change the outcome) are rethrown/returned immediately.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace tr::server {

struct ClientResult {
  /// kFrameResponse or kFrameError.
  char type = 0;
  /// The terminal payload, byte-for-byte as received.
  std::string payload;
  /// Progress payloads in arrival order.
  std::vector<std::string> progress;
};

struct RetryPolicy {
  /// Extra attempts after the first; 0 = single attempt (still applies
  /// the timeout).
  int max_retries = 0;
  /// Backoff before the first retry; doubles per retry.
  double base_backoff_ms = 100.0;
  /// Backoff ceiling (applied before jitter).
  double max_backoff_ms = 5000.0;
  /// Per-attempt bound on the connect and on *each* frame read; < 0 =
  /// none (the server's --deadline-ms is then the only bound). The
  /// per-read scope means a slow-but-alive daemon streaming progress is
  /// never falsely timed out, while a daemon that went silent is.
  double timeout_ms = -1.0;
  /// Seed of the jitter stream: each retry's delay is scaled by a
  /// uniform factor in [0.5, 1.0] drawn from a tr::Rng seeded with
  /// this, so a fleet of clients seeded differently decorrelates while
  /// any one client's schedule is reproducible.
  std::uint64_t jitter_seed = 1;
  /// Observability hook: called before each backoff sleep with the
  /// upcoming attempt number (1-based), the jittered delay and the
  /// failure that caused the retry.
  std::function<void(int attempt, double delay_ms, const std::string& why)>
      on_retry;
};

/// Connects to host:port and returns the fd. With timeout_ms >= 0 the
/// connect is non-blocking and must complete within it; < 0 blocks.
/// Throws tr::Error: ErrorCode::disconnect on refusal or timeout,
/// invalid_argument on a malformed address.
int connect_tcp(const std::string& host, int port, double timeout_ms = -1.0);

/// Sends one request document and returns the terminal frame — possibly
/// an error frame, when it is non-retryable or retries are exhausted.
/// `on_progress` (optional) sees each progress payload as it arrives.
/// Throws tr::Error when every attempt failed at the transport level
/// (the last failure propagates).
ClientResult run_request_with_retry(
    const std::string& host, int port, const std::string& request_json,
    const RetryPolicy& policy,
    const std::function<void(const std::string&)>& on_progress = {});

/// One attempt without a timeout: run_request_with_retry under the
/// default policy.
ClientResult run_request(
    const std::string& host, int port, const std::string& request_json,
    const std::function<void(const std::string&)>& on_progress = {});

/// Asks the daemon to drain. Returns once the shutdown is acknowledged;
/// throws on connect failure, returns false if the ack never arrived.
bool send_shutdown(const std::string& host, int port);

}  // namespace tr::server
