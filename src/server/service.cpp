#include "server/service.hpp"

#include <ostream>
#include <sstream>

#include "opt/batch_report.hpp"
#include "opt/circuit_load.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tr::server {

namespace {

opt::CircuitError make_error(ErrorCode code, std::string site,
                             std::string message) {
  opt::CircuitError error;
  error.code = code;
  error.site = std::move(site);
  error.message = std::move(message);
  return error;
}

/// Delivers the terminal response, or, when it exceeds the sink's frame
/// limit, one non-retryable error naming the size: a client reading with
/// the same limit would refuse the frame unread, and rerunning the
/// request cannot shrink it. Returns true when the response was sent.
bool deliver_response(Sink& sink, const std::string& payload) {
  const std::size_t limit = sink.max_response_bytes();
  if (payload.size() <= limit) {
    sink.on_response(payload);
    return true;
  }
  sink.on_error(render_error(make_error(
      ErrorCode::invalid_argument, "wire",
      "wire: response of " + std::to_string(payload.size()) +
          " bytes exceeds the frame limit of " + std::to_string(limit) +
          " bytes; request fewer circuits or drop the per-gate "
          "configurations (\"gate_configs\": false, tr_opt "
          "--no-gate-configs)")));
  return false;
}

}  // namespace

std::string render_progress(std::size_t index,
                            const opt::BatchCircuitResult& result) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("progress");
  w.key("index");
  w.value(static_cast<std::int64_t>(index));
  w.key("circuit");
  w.value(result.name);
  w.key("status");
  w.value(opt::circuit_status_name(result.status));
  w.end_object();
  return out.str();
}

std::string render_error(const opt::CircuitError& error) {
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.key("type");
  w.value("error");
  opt::write_error_members(w, error);
  w.end_object();
  return out.str();
}

OptimizeService::OptimizeService(ServiceConfig config)
    : config_(config), library_(celllib::CellLibrary::standard()) {
  if (config_.workers < 1) config_.workers = 1;
  library_.set_catalog_capacity(config_.catalog_capacity);
  executors_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

OptimizeService::~OptimizeService() {
  drain();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& executor : executors_) executor.join();
}

util::CancellationToken OptimizeService::submit(
    const std::string& request_json, const std::shared_ptr<Sink>& sink) {
  opt::RunOptions request;
  try {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.received;
    }
    request = opt::parse_request(request_json);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.invalid;
    }
    sink->on_error(render_error(opt::describe_current_exception()));
    return {};
  }

  // Idempotent replay (DESIGN.md Sec. 15.4): a request_id the service
  // already answered is served from the replay cache without touching
  // the queue — a client retrying a lost response never re-runs the
  // work. Checked after parsing so a malformed duplicate still counts
  // as invalid. No progress frames are replayed: the terminal response
  // is the contract, progress is best-effort observability.
  if (!request.request_id.empty()) {
    std::string replay;
    bool hit = false;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (const std::string* stored = find_replay_locked(request.request_id)) {
        replay = *stored;
        hit = true;
        ++counters_.replayed;
      }
    }
    if (hit) {
      deliver_response(*sink, replay);
      return {};
    }
  }

  Job job;
  job.cancel = request.deadline_ms
                   ? util::CancellationToken::with_deadline_ms(
                         *request.deadline_ms)
                   : util::CancellationToken::cancellable();
  const util::CancellationToken token = job.cancel;
  job.request = std::move(request);
  job.sink = sink;

  std::string reject_reason;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      ++counters_.rejected;
      reject_reason = "server: draining, not accepting requests";
    } else if (queue_.size() >= config_.max_queue) {
      ++counters_.rejected;
      reject_reason = "server: queue full (" +
                      std::to_string(config_.max_queue) +
                      " pending requests)";
    } else {
      // Smallest key = highest priority, FIFO within a level.
      queue_.emplace(std::make_pair(-job.request.priority, next_sequence_++),
                     std::move(job));
      queue_cv_.notify_one();
      return token;
    }
  }
  // Rejected: back-pressure is the client's problem to react to, so it
  // gets a structured resource error, synchronously.
  sink->on_error(
      render_error(make_error(ErrorCode::resource, "server", reject_reason)));
  return {};
}

void OptimizeService::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left
      auto it = queue_.begin();
      job = std::move(it->second);
      queue_.erase(it);
      ++running_;
    }
    execute(job);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --running_;
    }
    idle_cv_.notify_all();
  }
}

void OptimizeService::execute(Job& job) noexcept {
  try {
    // The injectable failure point of the request path (DESIGN.md
    // Sec. 12.4): CI drills arm TR_FAULT=server.request and assert the
    // daemon answers a structured fault_injected error and lives on.
    // The fault's own site string ("server.request") is the report
    // convention, matching the golden batch.circuit fixtures.
    util::fault::check("server.request");

    // No early cancel check: an already-expired deadline still yields a
    // full deterministic report with every circuit `cancelled`, exactly
    // like `tr_opt --deadline-ms 0` (the batch layer checks the token
    // at each circuit start, so no optimization work actually runs).
    std::vector<opt::BatchCircuit> batch;
    batch.reserve(job.request.circuits.size());
    for (const std::string& spec : job.request.circuits) {
      batch.push_back(opt::make_scenario_circuit_guarded(
          spec, job.request.scenario, job.request.seed, library_,
          [&] { return opt::load_circuit_spec(spec, library_); }));
    }

    opt::BatchOptions options = job.request.batch;
    options.cancel = job.cancel;
    const std::shared_ptr<Sink> sink = job.sink;
    options.progress = [sink](std::size_t index,
                              const opt::BatchCircuitResult& result) {
      sink->on_progress(render_progress(index, result));
    };

    const opt::BatchOptimizer optimizer(library_, tech_, options);
    const opt::BatchReport report = optimizer.run(batch);

    opt::BatchJsonOptions json;
    json.include_timing = false;       // wall clock is nondeterministic
    json.include_cache_stats = false;  // deltas depend on other requests
    json.include_gate_configs = job.request.gate_configs;
    std::ostringstream out;
    write_batch_json(batch, report, options, out, json);
    const std::string payload = out.str();
    // Remember before sending: if the client dies between our send and
    // its read, its retry must find the entry already present. A payload
    // past the frame limit is answered with an error frame instead, and
    // error frames are never remembered.
    if (!job.request.request_id.empty() &&
        payload.size() <= job.sink->max_response_bytes()) {
      remember_response(job.request.request_id, payload);
    }
    if (deliver_response(*job.sink, payload)) {
      classify_outcome(report);
    } else {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++counters_.error;
    }
  } catch (...) {
    const opt::CircuitError error = opt::describe_current_exception();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error.code == ErrorCode::cancelled) {
        ++counters_.cancelled;
      } else {
        ++counters_.error;
      }
    }
    // The sink may be writing to a dead socket; its failure handling is
    // internal. Nothing here may throw out of the executor.
    try {
      job.sink->on_error(render_error(error));
    } catch (...) {
    }
  }
}

const std::string* OptimizeService::find_replay_locked(
    const std::string& request_id) {
  const auto it = replay_.find(request_id);
  if (it == replay_.end()) return nullptr;
  // Move to most-recent; the list is small (replay_capacity), so the
  // linear remove is noise next to the optimization work being skipped.
  replay_order_.remove(request_id);
  replay_order_.push_back(request_id);
  return &it->second;
}

void OptimizeService::remember_response(const std::string& request_id,
                                        const std::string& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (config_.replay_capacity == 0) return;
  const auto it = replay_.find(request_id);
  if (it != replay_.end()) {
    // A concurrent duplicate completed first; responses are pure
    // functions of the request bytes, so the payloads agree — just
    // refresh recency.
    replay_order_.remove(request_id);
    replay_order_.push_back(request_id);
    return;
  }
  while (replay_.size() >= config_.replay_capacity) {
    replay_.erase(replay_order_.front());
    replay_order_.pop_front();
  }
  replay_.emplace(request_id, payload);
  replay_order_.push_back(request_id);
}

void OptimizeService::classify_outcome(const opt::BatchReport& report) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Mirrors the CLI's exit-code precedence: a failed circuit beats
  // cancellation, which beats ok.
  if (report.circuits_failed > 0) {
    ++counters_.error;
  } else if (report.circuits_cancelled > 0) {
    ++counters_.cancelled;
  } else {
    ++counters_.ok;
  }
}

void OptimizeService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  idle_cv_.wait(lock, [this] { return queue_.empty() && running_ == 0; });
}

ServiceMetrics OptimizeService::metrics() const {
  ServiceMetrics snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    snapshot = counters_;
  }
  snapshot.cache = library_.catalog_cache_stats();
  snapshot.cached_catalogs = library_.cached_catalog_count();
  return snapshot;
}

void OptimizeService::write_metrics_json(std::ostream& out) const {
  const ServiceMetrics m = metrics();
  util::JsonWriter w(out);
  w.begin_object();
  w.key("generator");
  w.value("tr_opt_server");
  w.key("requests");
  w.begin_object();
  w.key("received");
  w.value(m.received);
  w.key("ok");
  w.value(m.ok);
  w.key("error");
  w.value(m.error);
  w.key("cancelled");
  w.value(m.cancelled);
  w.key("rejected");
  w.value(m.rejected);
  w.key("invalid");
  w.value(m.invalid);
  w.key("replayed");
  w.value(m.replayed);
  w.end_object();
  // The cross-request cache story lives here, not in response JSON:
  // lifetime hit/miss/eviction totals of the shared warm cache.
  w.key("catalog_cache");
  w.begin_object();
  w.key("hits");
  w.value(m.cache.hits);
  w.key("misses");
  w.value(m.cache.misses);
  w.key("lookups");
  w.value(m.cache.lookups());
  w.key("hit_rate");
  w.value(m.cache.hit_rate());
  w.key("evictions");
  w.value(m.cache.evictions);
  w.key("resident");
  w.value(static_cast<std::uint64_t>(m.cached_catalogs));
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(library_.catalog_capacity()));
  w.end_object();
  w.end_object();
}

}  // namespace tr::server
