#include "server/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace tr::server {

namespace {

using Clock = std::chrono::steady_clock;

/// Closes the fd on every exit path of the request exchange.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

[[noreturn]] void throw_disconnect(const std::string& message) {
  throw Error("client: " + message, ErrorCode::disconnect);
}

/// One attempt: connect, send, stream until the terminal frame. With
/// timeout_ms >= 0 each read slice is bounded via read_frame's interrupt
/// predicate — per *read*, not per attempt, so long optimizations that
/// keep streaming progress never trip it.
ClientResult exchange(
    const std::string& host, int port, const std::string& request_json,
    double timeout_ms,
    const std::function<void(const std::string&)>& on_progress) {
  const FdGuard guard{connect_tcp(host, port, timeout_ms)};
  if (!write_frame(guard.fd, kFrameRequest, request_json)) {
    throw_disconnect("request send failed");
  }

  ClientResult result;
  for (;;) {
    Frame frame;
    std::function<bool()> interrupted;
    if (timeout_ms >= 0.0) {
      const Clock::time_point deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 timeout_ms));
      interrupted = [deadline] { return Clock::now() >= deadline; };
    }
    const ReadResult r =
        read_frame(guard.fd, frame, kDefaultMaxFrameBytes, interrupted);
    if (r == ReadResult::interrupted) {
      throw_disconnect("no frame within " +
                       std::to_string(static_cast<long long>(timeout_ms)) +
                       " ms (daemon hung or unreachable)");
    }
    if (r == ReadResult::oversized) {
      // The daemon answered with a frame over the limit: a deterministic
      // answer that another attempt would only repeat.
      throw Error("client: " + read_result_message(r, frame,
                                                   kDefaultMaxFrameBytes),
                  ErrorCode::parse);
    }
    if (r != ReadResult::ok) {
      // EOF before the terminal frame, reset, torn header: the daemon
      // went away under us, so a retrying caller tries again.
      throw_disconnect(read_result_message(r, frame, kDefaultMaxFrameBytes));
    }
    if (frame.type == kFrameProgress) {
      if (on_progress) on_progress(frame.payload);
      result.progress.push_back(std::move(frame.payload));
      continue;
    }
    if (frame.type == kFrameResponse || frame.type == kFrameError) {
      result.type = frame.type;
      result.payload = std::move(frame.payload);
      return result;
    }
    throw Error(std::string("client: unexpected frame type '") + frame.type +
                "'");
  }
}

/// True when an error-frame payload says the failure is worth retrying
/// ("retryable": true, schema v4). A payload that cannot be parsed or
/// predates the field counts as non-retryable — never loop on an
/// unclassified failure.
bool error_frame_retryable(const std::string& payload) {
  try {
    const util::JsonValue doc = util::json_parse(payload);
    const util::JsonValue* retryable = doc.find("retryable");
    return retryable != nullptr && retryable->as_bool("retryable");
  } catch (...) {
    return false;
  }
}

}  // namespace

int connect_tcp(const std::string& host, int port, double timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd >= 0, "client: socket: ", std::strerror(errno));
  FdGuard guard{fd};

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw Error("client: bad address '" + host + "'",
                ErrorCode::invalid_argument);
  }

  const bool bounded = timeout_ms >= 0.0;
  const int flags = bounded ? ::fcntl(fd, F_GETFL, 0) : 0;
  if (bounded) {
    require(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "client: fcntl: ", std::strerror(errno));
  }

  // A refused/unreachable daemon is a transport condition, not a bad
  // request: ErrorCode::disconnect so the retry loop classifies it as
  // retryable (the daemon may be restarting).
  const std::string endpoint = host + ":" + std::to_string(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (!bounded || errno != EINPROGRESS) {
      throw_disconnect("cannot connect to " + endpoint + ": " +
                       std::strerror(errno));
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::ceil(timeout_ms)));
    if (ready == 0) {
      throw_disconnect("connect to " + endpoint + " timed out after " +
                       std::to_string(static_cast<long long>(timeout_ms)) +
                       " ms");
    }
    if (ready < 0) {
      throw_disconnect("poll: " + std::string(std::strerror(errno)));
    }
    int error = 0;
    socklen_t len = sizeof(error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
        error != 0) {
      throw_disconnect("cannot connect to " + endpoint + ": " +
                       std::strerror(error != 0 ? error : errno));
    }
  }

  // Back to blocking: the framed reads poll with their own deadline
  // predicate and expect blocking semantics between slices.
  if (bounded) {
    require(::fcntl(fd, F_SETFL, flags) == 0, "client: fcntl: ",
            std::strerror(errno));
  }
  guard.fd = -1;  // ownership passes to the caller
  return fd;
}

ClientResult run_request_with_retry(
    const std::string& host, int port, const std::string& request_json,
    const RetryPolicy& policy,
    const std::function<void(const std::string&)>& on_progress) {
  Rng jitter(policy.jitter_seed);

  for (int attempt = 0;; ++attempt) {
    std::string why;
    try {
      const ClientResult result =
          exchange(host, port, request_json, policy.timeout_ms, on_progress);
      if (result.type != kFrameError || attempt >= policy.max_retries ||
          !error_frame_retryable(result.payload)) {
        return result;
      }
      // A retryable server error (queue full, injected fault, ...):
      // worth another attempt — with an idempotency key the daemon
      // replays the response if the request did complete meanwhile.
      why = "server error: " + result.payload;
    } catch (const Error& e) {
      if (attempt >= policy.max_retries || !is_retryable(e.code())) throw;
      why = e.what();
    }

    // Exponential backoff with deterministic jitter: delay_k =
    // min(base * 2^k, max) * U[0.5, 1.0).
    const double exp_delay =
        std::min(policy.base_backoff_ms * std::ldexp(1.0, attempt),
                 policy.max_backoff_ms);
    const double delay_ms = exp_delay * jitter.uniform(0.5, 1.0);
    if (policy.on_retry) policy.on_retry(attempt + 1, delay_ms, why);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(delay_ms));
  }
}

ClientResult run_request(
    const std::string& host, int port, const std::string& request_json,
    const std::function<void(const std::string&)>& on_progress) {
  return run_request_with_retry(host, port, request_json, RetryPolicy{},
                                on_progress);
}

bool send_shutdown(const std::string& host, int port) {
  const FdGuard guard{connect_tcp(host, port)};
  if (!write_frame(guard.fd, kFrameShutdown, "")) return false;
  Frame frame;
  const ReadResult r = read_frame(guard.fd, frame, kDefaultMaxFrameBytes);
  return r == ReadResult::ok && frame.type == kFrameShutdownAck;
}

}  // namespace tr::server
