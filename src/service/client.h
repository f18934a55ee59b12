// Loopback client of the aalignd wire protocol (service/protocol.h):
// connect, write one request line, read one response line. Used by the
// aalign_client tool, the service tests, and bench_service - the same
// code path a real client would take.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "service/protocol.h"

namespace aalign::service {

class ServiceClient {
 public:
  static constexpr std::int64_t kDefaultConnectTimeoutMs = 5000;

  // Connects immediately; throws std::runtime_error on failure. The
  // connect is non-blocking under the hood and bounded by
  // `connect_timeout_ms` (a dead or blackholed peer fails fast instead
  // of hanging in the kernel's SYN retries - the gateway relies on this
  // to detect a down shard within its deadline budget).
  ServiceClient(const std::string& host, std::uint16_t port,
                std::int64_t connect_timeout_ms = kDefaultConnectTimeoutMs);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  // Round trip: send the request line, block for the response line.
  // Transport failures come back as ok=false / Internal responses (the
  // caller distinguishes them by ErrorCode, never by exception).
  WireResponse call(const WireRequest& req);

  // Fire-and-forget send (used with close() to exercise the server's
  // disconnect-cancellation path). False when the send failed.
  bool send_only(const WireRequest& req);

  // Raw line send (a trailing newline is appended when missing) - lets
  // tests exercise the server's malformed-input handling.
  bool send_raw(std::string line);

  // Blocks for the next response line (pairs with send_only/send_raw).
  WireResponse read_response();

  // Reads what the socket holds without blocking: the next response (or
  // an Internal error when the transport failed) once a whole line is in,
  // else nullopt with any partial line kept for the next call.
  std::optional<WireResponse> read_available();

  // Hard-closes the connection (idempotent; the destructor calls it).
  void close();

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }  // for polling several clients at once

  // True when the connection can carry a new request: open, nothing
  // unread (buffered or on the socket) and the peer has not hung up.
  bool idle() const;

 private:
  // The next buffered response line, parsed; nullopt when none is whole.
  std::optional<WireResponse> take_line();

  int fd_ = -1;
  std::string buffer_;  // bytes read past the last newline
};

}  // namespace aalign::service
