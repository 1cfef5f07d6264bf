#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <ostream>
#include <thread>

#include "util/error.hpp"

namespace tr::server {

namespace {

// Monitor/accept poll slice; bounds how stale a drain or disconnect
// observation can be.
constexpr int kPollSliceMs = 100;

opt::CircuitError wire_error(ErrorCode code, const std::string& message) {
  opt::CircuitError error;
  error.code = code;
  error.site = "wire";
  error.message = message;
  return error;
}

/// Sink that frames payloads onto one connection socket. A failed send
/// latches `dead` (the peer is gone; MSG_NOSIGNAL turned the SIGPIPE
/// into an error) and every later send becomes a no-op — the monitor
/// loop observes the flag and cancels the request.
class SocketSink : public Sink {
public:
  SocketSink(int fd, std::size_t max_frame_bytes)
      : fd_(fd), max_frame_bytes_(max_frame_bytes) {}

  void on_progress(const std::string& payload) override {
    send(kFrameProgress, payload);
  }
  void on_response(const std::string& payload) override {
    send(kFrameResponse, payload);
    done_.store(true);
  }
  void on_error(const std::string& payload) override {
    send(kFrameError, payload);
    done_.store(true);
  }
  std::size_t max_response_bytes() const noexcept override {
    return max_frame_bytes_;
  }

  /// Terminal frame delivered (or dropped on a dead peer).
  bool done() const noexcept { return done_.load(); }
  /// A send failed; the peer is unreachable.
  bool dead() const noexcept { return dead_.load(); }

private:
  void send(char type, const std::string& payload) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (dead_.load()) return;
    if (!write_frame(fd_, type, payload)) dead_.store(true);
  }

  int fd_;
  std::size_t max_frame_bytes_;
  std::mutex mutex_;  ///< serialises frames from executor vs monitor
  std::atomic<bool> done_{false};
  std::atomic<bool> dead_{false};
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error("server: " + what + ": " + std::strerror(errno),
              ErrorCode::internal);
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (drain_pipe_[0] >= 0) ::close(drain_pipe_[0]);
  if (drain_pipe_[1] >= 0) ::close(drain_pipe_[1]);
  // serve() joins connection threads; a server destroyed without
  // serve() never spawned any.
}

void Server::start() {
  if (::pipe(drain_pipe_) != 0) throw_errno("pipe");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");

  const int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    throw Error("server: bad bind address '" + config_.host + "'",
                ErrorCode::invalid_argument);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind to " + config_.host + ":" +
                std::to_string(config_.port));
  }
  if (::listen(listen_fd_, 64) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

void Server::serve() {
  require(listen_fd_ >= 0, "server: serve() before start()");
  while (!draining_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {drain_pipe_[0], POLLIN, 0};
    const int ready = ::poll(fds, 2, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    connection_threads_.emplace_back([this, fd] { handle_connection(fd); });
  }
  draining_.store(true);

  // Stop accepting, finish in-flight, join the transport. Connection
  // reads poll `draining_`, so idle clients cannot hold the drain open.
  ::close(listen_fd_);
  listen_fd_ = -1;
  service_.drain();
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) thread.join();
}

void Server::request_drain() noexcept {
  draining_.store(true);
  if (drain_pipe_[1] >= 0) {
    const char byte = 'd';
    // Single write to a pipe: async-signal-safe, and the accept loop
    // only needs readability, so a full pipe is still a wake-up.
    [[maybe_unused]] const ssize_t r = ::write(drain_pipe_[1], &byte, 1);
  }
}

void Server::write_metrics_json(std::ostream& out) const {
  service_.write_metrics_json(out);
}

void Server::handle_connection(int fd) {
  const auto interrupted = [this] { return draining_.load(); };

  Frame frame;
  const ReadResult result =
      read_frame(fd, frame, config_.max_frame_bytes, interrupted);

  if (result != ReadResult::ok) {
    // Malformed framing gets a structured parse error; a clean EOF or
    // an interrupted read just closes. Either way the stream is
    // unsynchronised, so the connection ends here.
    if (result == ReadResult::truncated_header ||
        result == ReadResult::truncated_payload ||
        result == ReadResult::oversized) {
      write_frame(fd, kFrameError,
                  render_error(wire_error(
                      ErrorCode::parse,
                      read_result_message(result, frame,
                                          config_.max_frame_bytes))));
    }
    ::close(fd);
    return;
  }

  if (frame.type == kFrameShutdown) {
    write_frame(fd, kFrameShutdownAck, "");
    ::close(fd);
    request_drain();
    return;
  }

  if (frame.type != kFrameRequest) {
    write_frame(fd, kFrameError,
                render_error(wire_error(
                    ErrorCode::invalid_argument,
                    std::string("wire: unexpected frame type '") +
                        frame.type + "'")));
    ::close(fd);
    return;
  }

  const auto sink = std::make_shared<SocketSink>(fd, config_.max_frame_bytes);
  const util::CancellationToken token = service_.submit(frame.payload, sink);

  // Monitor until the terminal frame: watch the socket for disconnect
  // (EOF/POLLRDHUP/error) and the sink for write failure, and cancel
  // the request on either. A valid token means the job was admitted;
  // an inert one means the terminal error was already delivered.
  while (token.valid() && !sink->done()) {
    if (sink->dead()) {
      token.request_cancel();
      break;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN | POLLRDHUP;
    const int ready = ::poll(&pfd, 1, kPollSliceMs);
    if (ready < 0 && errno != EINTR) {
      token.request_cancel();
      break;
    }
    if (ready > 0) {
      if ((pfd.revents & (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) != 0) {
        token.request_cancel();
        break;
      }
      if ((pfd.revents & POLLIN) != 0) {
        char buf[256];
        const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
        if (r == 0) {  // orderly shutdown from the client
          token.request_cancel();
          break;
        }
        if (r < 0 && errno != EINTR && errno != EAGAIN &&
            errno != EWOULDBLOCK) {
          token.request_cancel();
          break;
        }
        // Any bytes after the request frame are protocol junk; drain
        // and ignore them so POLLIN does not spin.
      }
    }
  }

  // A cancelled request still ends with a terminal frame attempt from
  // the executor; wait for it so `sink` outlives every use of fd.
  while (token.valid() && !sink->done()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::close(fd);
}

}  // namespace tr::server
