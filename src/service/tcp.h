// TCP transport of aalignd: a plain IPv4 listener speaking the
// newline-delimited JSON protocol (service/protocol.h), one thread per
// connection, requests handled strictly in order per connection.
//
// Lifecycle wiring to the RequestHandler (handler.h - an AlignService
// shard/whole-database executor or a Gateway scatter front end):
//   * each request line is parsed and submit()ted; the connection thread
//     waits on the PendingRequest while POLLING ITS SOCKET - a peer that
//     disconnects mid-request fires the request's CancelToken, so an
//     abandoned alignment stops consuming cores within one kernel
//     stride-chunk per worker (the response is then dropped). The same
//     probe is passed into submit(), so a handler that answers before it
//     returns (the Gateway) cancels on its own;
//   * malformed lines are answered with a structured invalid_request
//     error - a bad client never tears down the server;
//   * request_stop() (the SIGTERM path) closes the listener and lets
//     every connection finish its in-flight request before its thread
//     exits: drain-then-exit, no request is abandoned mid-execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/handler.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aalign::service {

struct TcpServerOptions {
  std::string bind_addr = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (query the bound port())
  // A line longer than this is answered invalid_request and the
  // connection is closed (protects the server from unbounded buffering).
  std::size_t max_line_bytes = 16u << 20;
};

class TcpServer {
 public:
  TcpServer(RequestHandler& service, TcpServerOptions opt = {});
  ~TcpServer();  // implies request_stop() + join()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds, listens, and starts the accept loop. Throws std::runtime_error
  // when the address cannot be bound.
  void start();

  // The actually-bound port (after start(); resolves port 0 requests).
  std::uint16_t port() const { return port_; }

  // Initiates drain: stop accepting, existing connections complete their
  // in-flight request and close. Does not block; join() waits.
  void request_stop();
  void join();

  bool stopping() const { return stop_.load(std::memory_order_acquire); }

 private:
  void accept_loop();
  void serve_connection(int fd);

  RequestHandler& service_;
  TcpServerOptions opt_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  Mutex conn_mu_{"service.tcp.connections"};
  std::vector<std::thread> connections_ AALIGN_GUARDED_BY(conn_mu_);
  bool joined_ AALIGN_GUARDED_BY(conn_mu_) = false;
};

}  // namespace aalign::service
