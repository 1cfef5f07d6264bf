// Optimization-server integration tests (ISSUE 8): the daemon's whole
// contract exercised in-process — wire framing, the malformed-frame
// corpus (pinned diagnostics in the test_parse_errors style), strict
// request validation, admission control, disconnect- and
// deadline-driven cancellation, the server.request fault site, warm
// catalog-cache reuse with LRU eviction, and graceful drain with the
// metrics dump. Every test that abuses the daemon finishes by proving
// it still serves a clean request: fault isolation means no request,
// however hostile, corrupts daemon state.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tr::server {
namespace {

using util::JsonValue;

/// A live daemon on an ephemeral loopback port, serve() on its own
/// thread. Draining (explicitly or at scope exit) joins the thread.
class TestServer {
public:
  explicit TestServer(ServerConfig config = {}) : server_(std::move(config)) {
    server_.start();
    thread_ = std::thread([this] { server_.serve(); });
  }

  ~TestServer() { drain(); }

  void drain() {
    if (!thread_.joinable()) return;
    server_.request_drain();
    thread_.join();
  }

  int port() const noexcept { return server_.port(); }
  Server& server() noexcept { return server_; }
  ServiceMetrics metrics() { return server_.service().metrics(); }

private:
  Server server_;
  std::thread thread_;
};

/// Sends raw bytes, half-closes the write side, and reads the server's
/// single reply frame (if any) — the malformed-frame harness.
ReadResult abuse(int port, const std::string& bytes, Frame& reply) {
  const int fd = connect_tcp("127.0.0.1", port);
  if (!bytes.empty()) {
    EXPECT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }
  ::shutdown(fd, SHUT_WR);  // EOF on the server's read side
  const ReadResult result = read_frame(fd, reply, kDefaultMaxFrameBytes);
  ::close(fd);
  return result;
}

std::string frame_bytes(char type, const std::string& payload) {
  std::string out;
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  out += static_cast<char>(n & 0xff);
  out += static_cast<char>((n >> 8) & 0xff);
  out += static_cast<char>((n >> 16) & 0xff);
  out += static_cast<char>((n >> 24) & 0xff);
  out += type;
  out += payload;
  return out;
}

/// Expects `reply` to be an error frame and returns its parsed payload.
JsonValue expect_error_frame(const Frame& reply) {
  EXPECT_EQ(reply.type, kFrameError);
  JsonValue doc = util::json_parse(reply.payload);
  EXPECT_EQ(doc.find("type")->as_string("type"), "error");
  return doc;
}

void expect_serves_cleanly(int port) {
  const ClientResult result =
      run_request("127.0.0.1", port, R"({"circuits": ["c17"]})");
  ASSERT_EQ(result.type, kFrameResponse);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("totals")->find("circuits_ok")->as_i64("ok"), 1);
}

// ---------------------------------------------------------------------------
// Wire protocol primitives

TEST(ServerProtocol, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload("hello \0 frame", 13);  // embedded NUL survives
  ASSERT_TRUE(write_frame(fds[0], kFrameRequest, payload));
  Frame frame;
  ASSERT_EQ(read_frame(fds[1], frame, kDefaultMaxFrameBytes), ReadResult::ok);
  EXPECT_EQ(frame.type, kFrameRequest);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(frame.declared_length, payload.size());

  // Empty payload is a legal frame (the shutdown request).
  ASSERT_TRUE(write_frame(fds[0], kFrameShutdown, ""));
  ASSERT_EQ(read_frame(fds[1], frame, kDefaultMaxFrameBytes), ReadResult::ok);
  EXPECT_EQ(frame.type, kFrameShutdown);
  EXPECT_TRUE(frame.payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServerProtocol, WriteToClosedPeerFailsInsteadOfSigpipe) {
  // The SIGPIPE satellite at its smallest: writing a frame into a
  // closed peer must report failure, not kill the process.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  // The first write may land in the send buffer; keep writing a large
  // payload until the RST surfaces as an error.
  const std::string big(1 << 20, 'x');
  bool failed = false;
  for (int i = 0; i < 16 && !failed; ++i) {
    failed = !write_frame(fds[0], kFrameProgress, big);
  }
  EXPECT_TRUE(failed);
  ::close(fds[0]);
}

TEST(ServerProtocol, ReadInterruptedByPredicate) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Frame frame;
  // Nothing will ever arrive; the predicate aborts the wait (this is
  // how draining unblocks idle connections).
  EXPECT_EQ(read_frame(fds[1], frame, kDefaultMaxFrameBytes,
                       [] { return true; }),
            ReadResult::interrupted);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Malformed-frame corpus: every entry gets a structured error (or a
// clean close), and the daemon then serves an untouched request.

TEST(ServerCorpus, TruncatedHeaderOversizedAndGarbage) {
  TestServer daemon;
  Frame reply;

  // Truncated length prefix: 3 of 5 header bytes, then EOF.
  ASSERT_EQ(abuse(daemon.port(), std::string("\x01\x02\x03", 3), reply),
            ReadResult::ok);
  {
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "parse");
    EXPECT_EQ(doc.find("site")->as_string("site"), "wire");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "wire: truncated frame header");
  }

  // Oversized declared length: 17 MiB against the 16 MiB bound. The
  // payload is never read.
  std::string oversized(std::string("\x00\x00\x10\x01", 4));  // 17825792 LE
  oversized += kFrameRequest;
  ASSERT_EQ(abuse(daemon.port(), oversized, reply), ReadResult::ok);
  {
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "parse");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "wire: frame length 17825792 exceeds limit of 16777216 bytes");
  }

  // Truncated payload: header promises 100 bytes, 10 arrive.
  {
    std::string bytes = frame_bytes(kFrameRequest, std::string(100, 'x'));
    bytes.resize(5 + 10);
    ASSERT_EQ(abuse(daemon.port(), bytes, reply), ReadResult::ok);
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "parse");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "wire: truncated frame payload (got 10 of 100 bytes)");
  }

  // Garbage JSON in a well-formed frame: the parser's diagnostic
  // travels back verbatim.
  ASSERT_EQ(abuse(daemon.port(), frame_bytes(kFrameRequest, "not json"),
                  reply),
            ReadResult::ok);
  {
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "parse");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "json: offset 0: expected a JSON value");
  }

  // Empty request object: valid JSON, no circuits.
  ASSERT_EQ(abuse(daemon.port(), frame_bytes(kFrameRequest, "{}"), reply),
            ReadResult::ok);
  {
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "request: no circuits given");
  }

  // Unknown frame type.
  ASSERT_EQ(abuse(daemon.port(), frame_bytes('X', "payload"), reply),
            ReadResult::ok);
  {
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");
    EXPECT_EQ(doc.find("message")->as_string("message"),
              "wire: unexpected frame type 'X'");
  }

  // A bare connect-then-close is a clean EOF: no reply, no harm.
  ASSERT_EQ(abuse(daemon.port(), "", reply), ReadResult::closed);

  // After the whole corpus the daemon is uncorrupted.
  expect_serves_cleanly(daemon.port());

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  // Only the framed-but-invalid payloads reach the service (garbage
  // JSON + empty object); framing-level rejects never do.
  EXPECT_EQ(metrics.invalid, 2u);
  EXPECT_EQ(metrics.ok, 1u);
}

TEST(ServerCorpus, StrictRequestValidation) {
  TestServer daemon;
  Frame reply;

  const auto expect_invalid = [&](const std::string& request,
                                  const std::string& message) {
    ASSERT_EQ(abuse(daemon.port(), frame_bytes(kFrameRequest, request),
                    reply),
              ReadResult::ok);
    const JsonValue doc = expect_error_frame(reply);
    EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");
    EXPECT_EQ(doc.find("message")->as_string("message"), message);
  };

  expect_invalid(R"({"circuits": ["c17"], "dedline_ms": 5})",
                 "request: unknown field 'dedline_ms'");
  expect_invalid(R"({"circuits": ["/etc/passwd.blif"]})",
                 "request: unknown circuit '/etc/passwd.blif' (the server "
                 "serves embedded classics and suite entries only)");
  expect_invalid(R"({"circuits": ["c17"], "scenario": "C"})",
                 "request: scenario must be \"A\" or \"B\"");
  expect_invalid(R"({"circuits": ["c17"], "deadline_ms": -1})",
                 "request: deadline_ms must be a finite non-negative number "
                 "or null");
  expect_invalid(R"({"circuits": ["c17"], "seed": -1})",
                 "seed must be a non-negative integer");
  expect_invalid(R"({"circuits": ["c17"], "delay_budget": -0.5})",
                 "request: delay_budget must be a non-negative number or "
                 "null");
  // The retired engine options: a client that still sends them gets a
  // structured error, never a silently different run.
  expect_invalid(R"({"circuits": ["c17"], "engine": "catalog"})",
                 "request: unknown field 'engine'");
  expect_invalid(R"({"circuits": ["c17"], "anneal_iters": 5})",
                 "request: unknown field 'anneal_iters'");
  expect_invalid(R"({"circuits": ["c17"], "objective": "min"})",
                 "request: unknown objective 'min' (expected "
                 "minimize|maximize)");

  expect_serves_cleanly(daemon.port());
}

TEST(ServerCorpus, RangeViolationsAreInvalidAtSubmit) {
  // A value outside its schema range never reaches an executor: it is an
  // invalid_argument error at submit, counted as invalid, not a failure.
  OptimizeService service;
  struct CaptureSink : Sink {
    std::string error;
    void on_progress(const std::string&) override {}
    void on_response(const std::string&) override {}
    void on_error(const std::string& payload) override { error = payload; }
  };
  const auto sink = std::make_shared<CaptureSink>();
  EXPECT_FALSE(
      service
          .submit(R"({"circuits": ["c17"], "threads_per_circuit": -1})", sink)
          .valid());
  const JsonValue doc = util::json_parse(sink->error);
  EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");
  EXPECT_EQ(doc.find("message")->as_string("message"),
            "request: threads_per_circuit must be an integer in "
            "0..2147483647");
  service.drain();
  EXPECT_EQ(service.metrics().invalid, 1u);
  EXPECT_EQ(service.metrics().error, 0u);
}

TEST(ServerCorpus, OversizedResponseIsCountedAsAnError) {
  // The classic report is far past this daemon's frame limit: the client
  // receives an error frame instead of the response, so the metrics must
  // count an error, never a success the client did not get.
  ServerConfig config;
  config.max_frame_bytes = 1024;
  TestServer daemon(config);
  const ClientResult result =
      run_request("127.0.0.1", daemon.port(), R"({"suite": "classic"})");
  ASSERT_EQ(result.type, kFrameError);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 0u);
  EXPECT_EQ(metrics.error, 1u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServerAdmission, DrainingRejectsNewRequests) {
  ServerConfig config;
  TestServer daemon(config);
  // Drain via the wire ('S' frame), acknowledged with 'B'.
  EXPECT_TRUE(send_shutdown("127.0.0.1", daemon.port()));
  daemon.drain();

  // The service itself now refuses admissions (transport is gone, so
  // exercise the service layer directly).
  struct CaptureSink : Sink {
    std::string error;
    void on_progress(const std::string&) override {}
    void on_response(const std::string&) override {}
    void on_error(const std::string& payload) override { error = payload; }
  };
  const auto sink = std::make_shared<CaptureSink>();
  const util::CancellationToken token =
      daemon.server().service().submit(R"({"circuits": ["c17"]})", sink);
  EXPECT_FALSE(token.valid());
  const JsonValue doc = util::json_parse(sink->error);
  EXPECT_EQ(doc.find("code")->as_string("code"), "resource");
  EXPECT_EQ(doc.find("message")->as_string("message"),
            "server: draining, not accepting requests");
  EXPECT_EQ(daemon.metrics().rejected, 1u);
}

TEST(ServerAdmission, FullQueueRejectsWithResourceError) {
  // max_queue = 0 bounds the admission queue at zero entries: every
  // submission is refused before execution — the deterministic way to
  // observe the queue-full path.
  ServerConfig config;
  config.service.max_queue = 0;
  TestServer daemon(config);

  const ClientResult result = run_request("127.0.0.1", daemon.port(),
                                          R"({"circuits": ["c17"]})");
  ASSERT_EQ(result.type, kFrameError);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("code")->as_string("code"), "resource");
  EXPECT_EQ(doc.find("message")->as_string("message"),
            "server: queue full (0 pending requests)");

  daemon.drain();
  EXPECT_EQ(daemon.metrics().rejected, 1u);
}

// ---------------------------------------------------------------------------
// Cancellation: deadlines and client disconnects

TEST(ServerCancel, ExpiredDeadlineCancelsEveryCircuit) {
  TestServer daemon;
  const ClientResult result = run_request(
      "127.0.0.1", daemon.port(),
      R"({"circuits": ["c17", "fulladder"], "deadline_ms": 0})");
  ASSERT_EQ(result.type, kFrameResponse);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(
      doc.find("totals")->find("circuits_cancelled")->as_i64("cancelled"), 2);
  EXPECT_EQ(doc.find("totals")->find("circuits_error")->as_i64("error"), 0);

  daemon.drain();
  EXPECT_EQ(daemon.metrics().cancelled, 1u);
}

TEST(ServerCancel, ClientDisconnectMidStreamCancelsAndDaemonSurvives) {
  // The disconnect satellite: a client that walks away mid-stream must
  // (a) not kill the daemon via SIGPIPE on the orphaned writes, and
  // (b) cancel the request so executors stop burning on it.
  TestServer daemon;

  const int fd = connect_tcp("127.0.0.1", daemon.port());
  // A wide request (whole table3 suite, serial) so work is still
  // outstanding when the disconnect lands.
  const std::string request =
      R"({"suite": "table3", "jobs": 1, "threads_per_circuit": 1})";
  ASSERT_TRUE(write_frame(fd, kFrameRequest, request));

  // Wait for the first progress frame — the request is demonstrably
  // executing and streaming to us — then vanish without a goodbye.
  Frame frame;
  ASSERT_EQ(read_frame(fd, frame, kDefaultMaxFrameBytes), ReadResult::ok);
  EXPECT_EQ(frame.type, kFrameProgress);
  ::close(fd);

  // Drain returns only after in-flight work settles; the daemon
  // surviving to report metrics IS the SIGPIPE assertion.
  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.received, 1u);
  // The disconnect raced the (fast) suite: either the cancel landed in
  // time, or the batch finished ok first. Both leave a live daemon and
  // exactly one classified request; what must never happen is a crash
  // or an unclassified request.
  EXPECT_EQ(metrics.ok + metrics.cancelled, 1u);

  // A cancelled or completed stream must not poison the next client.
  // (The daemon is draining now, so assert via counters only.)
  EXPECT_EQ(metrics.error, 0u);
}

// ---------------------------------------------------------------------------
// Fault injection: the server.request site

TEST(ServerFault, InjectedRequestFaultAnswersStructuredErrorAndRecovers) {
  TestServer daemon;
  {
    util::fault::ScopedFault fault("server.request");
    const ClientResult result = run_request("127.0.0.1", daemon.port(),
                                            R"({"circuits": ["c17"]})");
    ASSERT_EQ(result.type, kFrameError);
    const JsonValue doc = util::json_parse(result.payload);
    EXPECT_EQ(doc.find("code")->as_string("code"), "fault_injected");
    // The fault's own site string, same convention as the golden
    // batch.circuit fixtures.
    EXPECT_EQ(doc.find("site")->as_string("site"), "server.request");
  }
  // Disarmed: the daemon recovers without restart.
  expect_serves_cleanly(daemon.port());

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.error, 1u);
  EXPECT_EQ(metrics.ok, 1u);
}

// ---------------------------------------------------------------------------
// Warm cache, determinism and eviction

TEST(ServerCache, WarmCacheKeepsResponsesByteIdentical) {
  TestServer daemon;
  const std::string request = R"({"circuits": ["c17", "cmp2"], "seed": 7})";
  const ClientResult cold = run_request("127.0.0.1", daemon.port(), request);
  ASSERT_EQ(cold.type, kFrameResponse);
  const ServiceMetrics after_cold = daemon.metrics();

  const ClientResult warm = run_request("127.0.0.1", daemon.port(), request);
  ASSERT_EQ(warm.type, kFrameResponse);
  const ServiceMetrics after_warm = daemon.metrics();

  // The determinism contract across cache states: byte-identical.
  EXPECT_EQ(cold.payload, warm.payload);
  // And the second run genuinely reused the warm cache: no new misses.
  EXPECT_EQ(after_warm.cache.misses, after_cold.cache.misses);
  EXPECT_GT(after_warm.cache.hits, after_cold.cache.hits);
}

TEST(ServerCache, BoundedCatalogCacheEvictsLru) {
  ServerConfig config;
  config.service.catalog_capacity = 2;
  TestServer daemon(config);
  // The classic suite instantiates more than two distinct structural
  // forms; a capacity-2 cache must evict and still answer correctly.
  const ClientResult result = run_request("127.0.0.1", daemon.port(),
                                          R"({"suite": "classic"})");
  ASSERT_EQ(result.type, kFrameResponse);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("totals")->find("circuits_error")->as_i64("error"), 0);

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_GT(metrics.cache.evictions, 0u);
  EXPECT_LE(metrics.cached_catalogs, 2u);
}

// ---------------------------------------------------------------------------
// Drain: the metrics dump

TEST(ServerDrain, MetricsDumpCarriesCountersAndCacheTotals) {
  TestServer daemon;
  expect_serves_cleanly(daemon.port());
  EXPECT_TRUE(send_shutdown("127.0.0.1", daemon.port()));
  daemon.drain();

  std::ostringstream out;
  daemon.server().write_metrics_json(out);
  const JsonValue doc = util::json_parse(out.str());
  EXPECT_EQ(doc.find("generator")->as_string("generator"), "tr_opt_server");
  const JsonValue* requests = doc.find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->find("received")->as_u64("received"), 1u);
  EXPECT_EQ(requests->find("ok")->as_u64("ok"), 1u);
  const JsonValue* cache = doc.find("catalog_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->find("lookups")->as_u64("lookups"), 0u);
  EXPECT_GE(cache->find("hit_rate")->as_double("hit_rate"), 0.0);
  ASSERT_NE(cache->find("evictions"), nullptr);
}

}  // namespace
}  // namespace tr::server
