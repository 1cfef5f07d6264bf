#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/error.hpp"

namespace tr::server {

namespace {

/// Closes the fd on every exit path of the request exchange.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

int connect_tcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  require(fd >= 0, "client: socket: ", std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("client: bad address '" + host + "'",
                ErrorCode::invalid_argument);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    // A refused/unreachable daemon is a transport condition, not a bad
    // request: ErrorCode::disconnect so retry_client classifies it as
    // retryable (the daemon may be restarting).
    throw Error("client: cannot connect to " + host + ":" +
                    std::to_string(port) + ": " + detail,
                ErrorCode::disconnect);
  }
  return fd;
}

ClientResult run_request(
    const std::string& host, int port, const std::string& request_json,
    const std::function<void(const std::string&)>& on_progress) {
  const FdGuard guard{connect_tcp(host, port)};
  if (!write_frame(guard.fd, kFrameRequest, request_json)) {
    throw Error("client: request send failed", ErrorCode::disconnect);
  }

  ClientResult result;
  for (;;) {
    Frame frame;
    // Responses can take as long as the optimization itself; there is
    // no client-side timeout — the caller's deadline travels in the
    // request and the server enforces it.
    const ReadResult r = read_frame(guard.fd, frame, kDefaultMaxFrameBytes);
    if (r != ReadResult::ok) {
      // Every other mid-stream read failure — EOF before the terminal
      // frame, reset, torn header — means the daemon went away under us:
      // classify as disconnect so a retrying caller tries again. An
      // oversized frame is the daemon's answer; a retry would repeat it.
      throw Error("client: " + read_result_message(r, frame,
                                                   kDefaultMaxFrameBytes),
                  r == ReadResult::oversized ? ErrorCode::parse
                                             : ErrorCode::disconnect);
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

bool send_shutdown(const std::string& host, int port) {
  const FdGuard guard{connect_tcp(host, port)};
  if (!write_frame(guard.fd, kFrameShutdown, "")) return false;
  Frame frame;
  const ReadResult r = read_frame(guard.fd, frame, kDefaultMaxFrameBytes);
  return r == ReadResult::ok && frame.type == kFrameShutdownAck;
}

}  // namespace tr::server
