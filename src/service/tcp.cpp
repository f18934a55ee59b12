#include "service/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace aalign::service {

namespace {

// Sends the whole buffer, absorbing short writes. False once the peer is
// gone (EPIPE/ECONNRESET) - the caller just drops the response.
bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool send_response(int fd, const WireResponse& resp) {
  const std::string line = response_json(resp).dump() + "\n";
  return send_all(fd, line.data(), line.size());
}

// True when the peer has closed its end (orderly EOF or reset) without us
// consuming any pipelined bytes.
bool peer_disconnected(int fd) {
  char probe = 0;
  const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;                              // orderly shutdown
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
      errno != EINTR) {
    return true;  // reset / torn down
  }
  return false;
}

}  // namespace

TcpServer::TcpServer(RequestHandler& service, TcpServerOptions opt)
    : service_(service), opt_(std::move(opt)) {}

TcpServer::~TcpServer() {
  request_stop();
  join();
}

void TcpServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("TcpServer: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  if (::inet_pton(AF_INET, opt_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("TcpServer: bad bind address " + opt_.bind_addr);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("TcpServer: bind failed: ") +
                             std::strerror(err));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(std::string("TcpServer: listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

void TcpServer::request_stop() {
  stop_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void TcpServer::join() {
  {
    MutexLock lock(conn_mu_);
    if (joined_) return;
    joined_ = true;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so connections_ no longer grows.
  std::vector<std::thread> conns;
  {
    MutexLock lock(conn_mu_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpServer::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;  // timeout / EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;  // racing a shutdown() or transient failure
    obs::registry().counter("service.connections").add();
    MutexLock lock(conn_mu_);
    connections_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void TcpServer::serve_connection(int fd) {
  std::string buffer;
  char chunk[65536];
  bool open = true;
  while (open) {
    // Extract the next complete line, reading more as needed.
    std::size_t nl = buffer.find('\n');
    while (nl == std::string::npos) {
      if (buffer.size() > opt_.max_line_bytes) {
        send_response(fd, error_response(0, ErrorCode::InvalidRequest,
                                         "request line too long"));
        open = false;
        break;
      }
      // Idle between requests: a draining server closes the connection
      // (every received request has been answered at this point).
      if (buffer.empty() && stop_.load(std::memory_order_acquire)) {
        open = false;
        break;
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) continue;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) {
        open = false;  // peer closed
        break;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        open = false;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      nl = buffer.find('\n');
    }
    if (!open) break;
    const std::string line = buffer.substr(0, nl);
    buffer.erase(0, nl + 1);
    if (line.empty()) continue;  // blank keep-alive lines are ignored

    std::string perr;
    const obs::Json doc = obs::Json::parse(line, &perr);
    if (doc.is_null()) {
      if (!send_response(fd, error_response(0, ErrorCode::InvalidRequest,
                                            "bad JSON: " + perr))) {
        break;
      }
      continue;
    }
    WireRequest req;
    const std::string verr = parse_request(doc, req);
    if (!verr.empty()) {
      if (!send_response(fd, error_response(doc["id"].as_int(),
                                            ErrorCode::InvalidRequest,
                                            verr))) {
        break;
      }
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) {
      send_response(fd, error_response(req.id, ErrorCode::ServerShutdown,
                                       "server is draining"));
      break;
    }

    // Wait for completion while watching the socket: a vanished client
    // fires the token so the executors stop burning cores on a response
    // nobody will read. (The Gateway answers inside submit() and polls
    // the probe itself.)
    const DisconnectProbe client_gone = [&] {
      return buffer.empty() && peer_disconnected(fd);
    };
    std::shared_ptr<PendingRequest> pending =
        service_.submit(std::move(req), client_gone);
    bool gone = false;
    while (!gone && !pending->wait_for(std::chrono::milliseconds(10))) {
      gone = client_gone();
    }
    if (gone) {
      pending->cancel.cancel();
      break;
    }
    if (!send_response(fd, pending->wait())) break;
  }
  ::close(fd);
}

}  // namespace aalign::service
