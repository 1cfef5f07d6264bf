// Resilient client + idempotency cache (server/client's retry loop +
// OptimizeService replay): bounded retries with deterministic jittered
// backoff, per-read timeouts against silent peers, retry-through of
// injected daemon faults, immediate return of non-retryable errors, and
// the request_id replay contract (at-most-once execution composed with
// retry-until-success), and responses past the frame limit answered once,
// without retries. In-process counterpart of chaos_soak.sh phase 2.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/server.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tr::server {
namespace {

using util::JsonValue;

/// A live daemon on an ephemeral loopback port (test_server idiom).
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
  ServiceMetrics metrics() { return server_.service().metrics(); }

private:
  Server server_;
  std::thread thread_;
};

/// A port that refuses connections: bind, then close without listening.
/// The kernel will not reassign the port to another process within the
/// test's lifetime on loopback, so connects fail fast with ECONNREFUSED.
int refused_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

struct RetryRecord {
  int attempt;
  double delay_ms;
  std::string why;
};

RetryPolicy fast_policy(int retries, std::uint64_t seed = 1,
                        std::vector<RetryRecord>* records = nullptr) {
  RetryPolicy policy;
  policy.max_retries = retries;
  policy.base_backoff_ms = 1.0;  // keep test wall-clock negligible
  policy.jitter_seed = seed;
  if (records != nullptr) {
    policy.on_retry = [records](int attempt, double delay_ms,
                                const std::string& why) {
      records->push_back({attempt, delay_ms, why});
    };
  }
  return policy;
}

const char kRequest[] = R"({"circuits": ["c17"]})";

// ---------------------------------------------------------------------------
// Transport-level retries

TEST(RetryClient, ExhaustsRetriesAgainstRefusedPortThenThrows) {
  std::vector<RetryRecord> records;
  const RetryPolicy policy = fast_policy(3, 7, &records);
  try {
    run_request_with_retry("127.0.0.1", refused_port(), kRequest, policy);
    FAIL() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::disconnect);
  }
  // One initial attempt + 3 retries; each backoff reported before the
  // sleep, attempts numbered from 1.
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].attempt, static_cast<int>(i) + 1);
    EXPECT_NE(records[i].why.find("connect"), std::string::npos);
  }
}

TEST(RetryClient, BackoffDoublesWithBoundedDeterministicJitter) {
  const int port = refused_port();
  std::vector<RetryRecord> first;
  std::vector<RetryRecord> second;
  EXPECT_THROW(run_request_with_retry("127.0.0.1", port, kRequest,
                                      fast_policy(4, 42, &first)),
               Error);
  EXPECT_THROW(run_request_with_retry("127.0.0.1", port, kRequest,
                                      fast_policy(4, 42, &second)),
               Error);
  ASSERT_EQ(first.size(), 4u);
  ASSERT_EQ(second.size(), 4u);
  for (std::size_t i = 0; i < first.size(); ++i) {
    // Deterministic: the same seed replays the same schedule exactly.
    EXPECT_EQ(first[i].delay_ms, second[i].delay_ms) << "retry " << i;
    // Bounded: delay_k in [0.5, 1.0) x base x 2^k.
    const double exp_delay = 1.0 * static_cast<double>(1 << i);
    EXPECT_GE(first[i].delay_ms, 0.5 * exp_delay) << "retry " << i;
    EXPECT_LT(first[i].delay_ms, exp_delay) << "retry " << i;
  }

  // A different seed decorrelates (the fleet-of-clients property).
  std::vector<RetryRecord> other;
  EXPECT_THROW(run_request_with_retry("127.0.0.1", port, kRequest,
                                      fast_policy(4, 43, &other)),
               Error);
  bool any_differs = false;
  for (std::size_t i = 0; i < other.size(); ++i) {
    any_differs = any_differs || other[i].delay_ms != first[i].delay_ms;
  }
  EXPECT_TRUE(any_differs);
}

TEST(RetryClient, SilentPeerTripsPerReadTimeoutAsRetryableDisconnect) {
  // A socket that listens but never answers: the connect succeeds, the
  // request frame lands in the accept queue's buffer, and no frame ever
  // comes back — exactly the hung-daemon shape the per-read timeout is
  // for.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  std::vector<RetryRecord> records;
  RetryPolicy policy = fast_policy(1, 1, &records);
  policy.timeout_ms = 100.0;
  try {
    run_request_with_retry("127.0.0.1", ntohs(addr.sin_port), kRequest,
                           policy);
    FAIL() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::disconnect);
    EXPECT_NE(std::string(e.what()).find("no frame within"),
              std::string::npos);
  }
  ASSERT_EQ(records.size(), 1u);  // it did retry once before giving up
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Error-frame classification

TEST(RetryClient, RetriesThroughOneShotInjectedDaemonFault) {
  TestServer daemon;
  std::vector<RetryRecord> records;
  ClientResult result;
  {
    util::fault::ScopedFault fault("server.request");
    result = run_request_with_retry("127.0.0.1", daemon.port(), kRequest,
                                    fast_policy(2, 1, &records));
  }
  // First attempt hit the injected fault (a retryable error frame), the
  // second attempt found the site disarmed and succeeded.
  ASSERT_EQ(result.type, kFrameResponse);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NE(records[0].why.find("fault_injected"), std::string::npos);
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("totals")->find("circuits_ok")->as_i64("ok"), 1);
}

TEST(RetryClient, NonRetryableErrorFrameReturnsWithoutRetrying) {
  TestServer daemon;
  std::vector<RetryRecord> records;
  // A schema violation: retrying cannot change the outcome, so the
  // error frame must come back immediately even with retries budgeted.
  const ClientResult result = run_request_with_retry(
      "127.0.0.1", daemon.port(), R"({"circuits": ["../../etc/passwd"]})",
      fast_policy(5, 1, &records));
  EXPECT_EQ(result.type, kFrameError);
  EXPECT_TRUE(records.empty());
  const JsonValue doc = util::json_parse(result.payload);
  const JsonValue* retryable = doc.find("retryable");
  ASSERT_NE(retryable, nullptr);
  EXPECT_FALSE(retryable->as_bool("retryable"));
}

TEST(RetryClient, OversizedResponseIsOneStructuredErrorWithoutRetries) {
  // The classic report is far past this daemon's frame limit (the
  // request is not): the daemon answers with a non-retryable error
  // naming the size instead of a frame its clients would refuse, and the
  // client takes exactly one attempt.
  ServerConfig config;
  config.max_frame_bytes = 1024;
  TestServer daemon(config);
  std::vector<RetryRecord> records;
  const ClientResult result =
      run_request_with_retry("127.0.0.1", daemon.port(),
                             R"({"suite": "classic"})",
                             fast_policy(3, 1, &records));
  ASSERT_EQ(result.type, kFrameError);
  EXPECT_TRUE(records.empty());
  const JsonValue doc = util::json_parse(result.payload);
  EXPECT_EQ(doc.find("code")->as_string("code"), "invalid_argument");
  EXPECT_FALSE(doc.find("retryable")->as_bool("retryable"));
  const std::string message = doc.find("message")->as_string("message");
  EXPECT_NE(message.find("exceeds the frame limit of 1024 bytes"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("--no-gate-configs"), std::string::npos);
}

TEST(RetryClient, OversizedFrameHeaderIsNotRetried) {
  // A peer that declares a frame past the client's limit: the client
  // refuses it unread, and another attempt would get the same answer.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(fd, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([fd] {
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    Frame request;
    read_frame(conn, request, kDefaultMaxFrameBytes);
    const std::uint32_t length = kDefaultMaxFrameBytes + 1;
    const char header[5] = {static_cast<char>(length & 0xff),
                            static_cast<char>((length >> 8) & 0xff),
                            static_cast<char>((length >> 16) & 0xff),
                            static_cast<char>((length >> 24) & 0xff),
                            kFrameResponse};
    ::send(conn, header, sizeof(header), MSG_NOSIGNAL);
    ::close(conn);
  });

  std::vector<RetryRecord> records;
  RetryPolicy policy = fast_policy(3, 1, &records);
  policy.timeout_ms = 1000.0;
  try {
    run_request_with_retry("127.0.0.1", ntohs(addr.sin_port), kRequest,
                           policy);
    ADD_FAILURE() << "expected tr::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::parse);
    EXPECT_NE(std::string(e.what()).find("exceeds limit"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(records.empty());
  peer.join();
  ::close(fd);
}

// ---------------------------------------------------------------------------
// Idempotency-key replay (the daemon side of "retry until success")

const char kKeyedRequest[] =
    R"({"circuits": ["c17"], "request_id": "retry-test-1"})";

TEST(RetryClient, SecondRequestWithSameIdReplaysFromCache) {
  TestServer daemon;
  const ClientResult first =
      run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  ASSERT_EQ(first.type, kFrameResponse);
  const ClientResult second =
      run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  ASSERT_EQ(second.type, kFrameResponse);
  // Byte-identical, and the daemon must not have executed twice.
  EXPECT_EQ(second.payload, first.payload);
  // A replay answers with the terminal frame only — no progress stream,
  // the observable difference between replaying and re-executing.
  EXPECT_FALSE(first.progress.empty());
  EXPECT_TRUE(second.progress.empty());

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 1u);
  EXPECT_EQ(metrics.replayed, 1u);
}

TEST(RetryClient, DistinctIdsExecuteIndependently) {
  TestServer daemon;
  const ClientResult a = run_request(
      "127.0.0.1", daemon.port(),
      R"({"circuits": ["c17"], "request_id": "key-a"})");
  const ClientResult b = run_request(
      "127.0.0.1", daemon.port(),
      R"({"circuits": ["c17"], "request_id": "key-b"})");
  ASSERT_EQ(a.type, kFrameResponse);
  ASSERT_EQ(b.type, kFrameResponse);
  EXPECT_EQ(a.payload, b.payload);  // deterministic daemon, same work

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 2u);
  EXPECT_EQ(metrics.replayed, 0u);
}

TEST(RetryClient, ErrorResponsesAreNotReplayed) {
  TestServer daemon;
  ClientResult failed;
  {
    util::fault::ScopedFault fault("server.request");
    failed = run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  }
  ASSERT_EQ(failed.type, kFrameError);
  // The same key re-executes — transient failures must not be pinned
  // into the cache, or a retry could replay the failure forever.
  const ClientResult retried =
      run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  ASSERT_EQ(retried.type, kFrameResponse);

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 1u);
  EXPECT_EQ(metrics.replayed, 0u);
}

TEST(RetryClient, OversizedResponsesAreNotReplayed) {
  // The daemon answers a response past its frame limit with an error
  // frame, so the payload must not be remembered either: the same key
  // re-executes and is answered with the same error, never a replay.
  ServerConfig config;
  config.max_frame_bytes = 1024;
  TestServer daemon(config);
  const char request[] = R"({"suite": "classic", "request_id": "big"})";
  for (int attempt = 0; attempt < 2; ++attempt) {
    const ClientResult result =
        run_request("127.0.0.1", daemon.port(), request);
    ASSERT_EQ(result.type, kFrameError) << "attempt " << attempt;
  }

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.received, 2u);
  EXPECT_EQ(metrics.error, 2u);
  EXPECT_EQ(metrics.replayed, 0u);
}

TEST(RetryClient, ReplayCapacityZeroDisablesTheCache) {
  ServerConfig config;
  config.service.replay_capacity = 0;
  TestServer daemon(std::move(config));
  const ClientResult first =
      run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  const ClientResult second =
      run_request("127.0.0.1", daemon.port(), kKeyedRequest);
  ASSERT_EQ(first.type, kFrameResponse);
  ASSERT_EQ(second.type, kFrameResponse);
  EXPECT_EQ(second.payload, first.payload);  // still deterministic

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 2u);
  EXPECT_EQ(metrics.replayed, 0u);
}

TEST(RetryClient, LeastRecentKeyIsEvictedAtCapacity) {
  ServerConfig config;
  config.service.replay_capacity = 2;
  TestServer daemon(std::move(config));
  auto keyed = [&](const std::string& id) {
    return run_request(
        "127.0.0.1", daemon.port(),
        R"({"circuits": ["c17"], "request_id": ")" + id + R"("})");
  };
  keyed("k1");
  keyed("k2");
  keyed("k3");  // evicts k1 (least recently used)
  keyed("k1");  // miss: re-executes
  keyed("k3");  // hit

  daemon.drain();
  const ServiceMetrics metrics = daemon.metrics();
  EXPECT_EQ(metrics.ok, 4u);
  EXPECT_EQ(metrics.replayed, 1u);
}

}  // namespace
}  // namespace tr::server
