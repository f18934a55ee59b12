// RequestHandler: the seam between the TCP transport and whatever
// fulfils a request. Two implementations exist: AlignService (service.h)
// executes searches locally, Gateway (gateway.h) scatters them across a
// fleet of shard-scoped backends and merges the per-shard top-k. The
// transport (tcp.h) only ever sees this interface, so a gateway process
// and a shard process run the exact same connection handling, framing,
// and disconnect-cancellation code.
#pragma once

#include <functional>
#include <memory>

#include "service/protocol.h"
#include "service/request_queue.h"

namespace aalign::service {

// True once the client that sent a request has gone. TcpServer passes
// its socket probe; in-process callers pass none.
using DisconnectProbe = std::function<bool()>;

class RequestHandler {
 public:
  virtual ~RequestHandler() = default;

  // Validates and enqueues. Always returns a handle whose response can
  // be waited on - validation failures and shed requests come back
  // already completed with the structured error; nothing throws across
  // this boundary. The caller may fire handle->cancel to abandon the
  // request (client disconnect); the implementation then completes it as
  // `cancelled`. An implementation that answers before returning (the
  // Gateway) polls `client_gone` while it waits and cancels the request
  // itself; one that returns at once (AlignService) ignores it.
  virtual std::shared_ptr<PendingRequest> submit(
      WireRequest req, const DisconnectProbe& client_gone = {}) = 0;
};

}  // namespace aalign::service
