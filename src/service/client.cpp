#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace aalign::service {

namespace {

// Completes a connect() on a non-blocking socket within `timeout_ms`.
// Returns "" on success, else the failure description.
std::string connect_bounded(int fd, const sockaddr_in& addr,
                            std::int64_t timeout_ms) {
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    return "";
  }
  if (errno != EINPROGRESS) {
    return std::string("connect failed: ") + std::strerror(errno);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return "connect timed out";
    pollfd pfd{fd, POLLOUT, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return std::string("poll failed: ") + std::strerror(errno);
    }
    if (rc == 0) return "connect timed out";
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
      return std::string("getsockopt failed: ") + std::strerror(errno);
    }
    if (err != 0) {
      return std::string("connect failed: ") + std::strerror(err);
    }
    return "";
  }
}

}  // namespace

ServiceClient::ServiceClient(const std::string& host, std::uint16_t port,
                             std::int64_t connect_timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("ServiceClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("ServiceClient: bad host address " + host);
  }
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  if (connect_timeout_ms <= 0) connect_timeout_ms = kDefaultConnectTimeoutMs;
  const std::string err = connect_bounded(fd_, addr, connect_timeout_ms);
  if (!err.empty()) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("ServiceClient: " + err);
  }
  ::fcntl(fd_, F_SETFL, flags);  // back to blocking for the send/read paths
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

ServiceClient::~ServiceClient() { close(); }

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServiceClient::send_only(const WireRequest& req) {
  return send_raw(request_json(req).dump());
}

bool ServiceClient::send_raw(std::string line) {
  if (fd_ < 0) return false;
  if (line.empty() || line.back() != '\n') line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n =
        ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<WireResponse> ServiceClient::take_line() {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  const std::string line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  std::string err;
  return parse_response(obs::Json::parse(line, &err));
}

bool ServiceClient::idle() const {
  if (fd_ < 0 || !buffer_.empty()) return false;
  char probe = 0;
  const ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

WireResponse ServiceClient::read_response() {
  char chunk[65536];
  for (;;) {
    if (std::optional<WireResponse> r = take_line()) return std::move(*r);
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return error_response(0, ErrorCode::Internal,
                            "connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return error_response(0, ErrorCode::Internal,
                            std::string("recv failed: ") +
                                std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<WireResponse> ServiceClient::read_available() {
  char chunk[65536];
  for (;;) {
    if (std::optional<WireResponse> r = take_line()) return r;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) {
      return error_response(0, ErrorCode::Internal,
                            "connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      return error_response(0, ErrorCode::Internal,
                            std::string("recv failed: ") +
                                std::strerror(errno));
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

WireResponse ServiceClient::call(const WireRequest& req) {
  if (!send_only(req)) {
    return error_response(req.id, ErrorCode::Internal, "send failed");
  }
  return read_response();
}

}  // namespace aalign::service
