#pragma once
// Optimization service: the daemon's execution core (DESIGN.md
// Sec. 13.3, 13.4). Owns the process-lifetime CellLibrary — the warm
// reordering-catalog cache every request shares — plus a fixed pool of
// executor threads fed by a bounded priority queue (admission control).
//
// The transport layer (server.hpp) submits raw request payloads with a
// Sink to stream results back; the service parses, admits or rejects,
// executes, and classifies the outcome into its cumulative metrics.
// Keeping the service transport-free makes the whole execution path —
// admission, priorities, cancellation, containment, determinism —
// testable in-process without a socket.
//
// Determinism under concurrency: a response is a pure function of
// (request bytes, seed). Everything concurrency-dependent is excluded
// from response JSON (include_timing and include_cache_stats off); the
// shared cache only memoizes pure per-cell catalogs, so a warm or cold
// cache changes speed, never bytes. The hammer test pins this contract
// against serial tr_opt output.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "celllib/library.hpp"
#include "celllib/tech.hpp"
#include "opt/batch.hpp"
#include "opt/run_options.hpp"
#include "util/cancel.hpp"

namespace tr::server {

/// Renders one progress frame payload:
///   {"type":"progress","index":I,"circuit":NAME,"status":STATUS}
std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result);

/// Renders one error frame payload (opt::write_error_members):
///   {"type":"error","code":CODE,"retryable":B,"site":SITE,"message":MSG}
std::string render_error(const opt::CircuitError& error);

/// Streaming result consumer for one request. Methods are called from
/// executor threads; implementations must be thread-safe with respect
/// to their own state. Write failures are the sink's business (the
/// socket sink latches a dead flag its connection monitor polls) —
/// the service keeps executing until the request's token cancels.
class Sink {
public:
  virtual ~Sink() = default;
  /// One per-circuit completion frame payload (render_progress).
  virtual void on_progress(const std::string& payload) = 0;
  /// The final batch JSON document; terminal.
  virtual void on_response(const std::string& payload) = 0;
  /// A structured error payload (render_error); terminal.
  virtual void on_error(const std::string& payload) = 0;
  /// Largest response payload the sink can deliver. The service answers
  /// a larger one with a non-retryable error frame instead of
  /// on_response, counts the request as an error, never replays it.
  virtual std::size_t max_response_bytes() const noexcept {
    return std::numeric_limits<std::size_t>::max();
  }
};

struct ServiceConfig {
  /// Executor threads = maximum concurrently running requests.
  int workers = 2;
  /// Maximum queued (admitted, not yet running) requests; submissions
  /// beyond it are rejected with a resource error, not buffered —
  /// back-pressure must reach the client, not grow the heap.
  std::size_t max_queue = 64;
  /// Catalog cache bound for the shared library; 0 = unbounded.
  std::size_t catalog_capacity = 0;
  /// Bound on remembered (request_id -> response) replay entries, LRU
  /// evicted; 0 disables idempotent replay entirely. Only completed
  /// *response* payloads that fit the frame limit are remembered —
  /// error frames re-execute, so a transient failure is never replayed
  /// forever (DESIGN.md Sec. 15.4).
  std::size_t replay_capacity = 64;
};

/// Cumulative counters reported in the drain-time metrics dump.
struct ServiceMetrics {
  std::uint64_t received = 0;   ///< submissions, valid or not
  std::uint64_t ok = 0;         ///< every circuit ok
  std::uint64_t error = 0;      ///< >= 1 circuit failed, or fatal error
  std::uint64_t cancelled = 0;  ///< cancelled, none failed
  std::uint64_t rejected = 0;   ///< admission refused (full / draining)
  std::uint64_t invalid = 0;    ///< unparseable / schema-violating
  std::uint64_t replayed = 0;   ///< answered from the idempotency cache
  celllib::CatalogCacheStats cache;  ///< shared-library lifetime totals
  std::size_t cached_catalogs = 0;   ///< resident entries at sample time
};

class OptimizeService {
public:
  explicit OptimizeService(ServiceConfig config = {});
  /// Joins the executors; pending queue entries are rejected first.
  ~OptimizeService();

  OptimizeService(const OptimizeService&) = delete;
  OptimizeService& operator=(const OptimizeService&) = delete;

  /// Parses and admits one request. On success returns the request's
  /// cancellation token — the transport cancels it when the client
  /// disconnects — and the sink will later receive progress frames and
  /// exactly one terminal on_response/on_error. On failure (bad JSON,
  /// schema violation, queue full, draining) the terminal on_error is
  /// delivered synchronously and an inert token is returned.
  ///
  /// `sink` must stay alive until its terminal call returns; the socket
  /// server guarantees this by keeping the connection object alive
  /// until the executor is done with it.
  util::CancellationToken submit(const std::string& request_json,
                                 const std::shared_ptr<Sink>& sink);

  /// Graceful drain: stop admitting, finish everything in flight and
  /// queued-before-drain, then return. Idempotent.
  void drain();

  /// Snapshot of the cumulative counters plus current cache state.
  ServiceMetrics metrics() const;

  /// The drain-time metrics dump (one JSON document; DESIGN.md
  /// Sec. 13.4) — the home of the cross-request cache hit rate and
  /// eviction counters excluded from per-response JSON.
  void write_metrics_json(std::ostream& out) const;

  const celllib::CellLibrary& library() const noexcept { return library_; }

private:
  struct Job {
    opt::RunOptions request;
    std::shared_ptr<Sink> sink;
    util::CancellationToken cancel;
  };

  void executor_loop();
  void execute(Job& job) noexcept;
  void classify_outcome(const opt::BatchReport& report);
  /// Looks up a completed request_id; moves a hit to most-recent.
  /// Returns nullptr on miss (pointer valid only under mutex_).
  const std::string* find_replay_locked(const std::string& request_id);
  /// Remembers a completed response, evicting the least recent beyond
  /// replay_capacity. Thread-safe.
  void remember_response(const std::string& request_id,
                         const std::string& payload);

  ServiceConfig config_;
  celllib::CellLibrary library_;
  celllib::Tech tech_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  ///< executors wait for work
  std::condition_variable idle_cv_;   ///< drain waits for quiescence
  /// Admitted-but-not-running jobs, keyed {-priority, sequence}: the
  /// map's smallest key is the highest priority, FIFO within a level.
  std::map<std::pair<int, std::uint64_t>, Job> queue_;
  std::uint64_t next_sequence_ = 0;
  /// Idempotency replay cache: completed request_id -> response bytes,
  /// most-recently-used at the back of replay_order_. Guarded by mutex_.
  std::map<std::string, std::string> replay_;
  std::list<std::string> replay_order_;
  int running_ = 0;
  bool draining_ = false;  ///< no further admissions
  bool stopping_ = false;  ///< executors exit once the queue is empty
  ServiceMetrics counters_;  ///< cache fields filled at snapshot time

  std::vector<std::thread> executors_;
};

}  // namespace tr::server
