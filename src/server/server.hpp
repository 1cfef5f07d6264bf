#pragma once
// Socket transport of the optimization daemon (DESIGN.md Sec. 13.1,
// 13.4): accept loop, per-connection threads, disconnect-driven
// cancellation and graceful drain. All execution lives in
// OptimizeService — this layer only moves frames.
//
// Connection lifecycle: read one frame. 'Q' submits the payload to the
// service with a socket-backed sink, then the connection thread turns
// into a monitor: it polls the socket for disconnect (POLLRDHUP/EOF)
// and the sink for write failure, and cancels the request's token on
// either — a client that went away must not keep burning executor time.
// 'S' acknowledges with 'B' and triggers drain. Malformed frames are
// answered with a structured error frame; the stream is then
// unsynchronised, so the connection closes.
//
// Drain (SIGTERM via request_drain(), or an 'S' frame): stop accepting,
// interrupt idle reads, let in-flight requests finish, join connection
// threads, then serve() returns and the caller flushes the metrics
// dump. request_drain() is async-signal-safe (one write to a self-pipe).

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.hpp"
#include "server/service.hpp"

namespace tr::server {

struct ServerConfig {
  ServiceConfig service;
  /// Bind address. Loopback by default: the daemon trusts its clients
  /// (there is no authentication), so exposure beyond the host must be
  /// an explicit decision.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Payload cap of request frames read and of response frames sent; a
  /// larger response is answered with a non-retryable error instead.
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class Server {
public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens; throws tr::Error on socket failures. After
  /// start(), port() returns the actually-bound port.
  void start();
  int port() const noexcept { return port_; }

  /// Runs the accept loop until drain is requested, then drains the
  /// service, joins connection threads and returns. Call from the
  /// thread that owns the daemon's lifetime.
  void serve();

  /// Requests graceful drain. Async-signal-safe: installable directly
  /// in a SIGTERM handler.
  void request_drain() noexcept;

  /// The drain-time metrics dump (service counters + cache totals).
  void write_metrics_json(std::ostream& out) const;

  OptimizeService& service() noexcept { return service_; }

private:
  void handle_connection(int fd);

  ServerConfig config_;
  OptimizeService service_;
  int listen_fd_ = -1;
  int port_ = 0;
  int drain_pipe_[2] = {-1, -1};  ///< [0] polled by accept, [1] written
  std::atomic<bool> draining_{false};

  std::mutex threads_mutex_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace tr::server
