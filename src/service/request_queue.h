// Bounded admission queue of the alignment service.
//
// Overload policy (docs/service.md): the queue holds at most `capacity`
// waiting requests. When a push finds it full, the request with the
// EARLIEST deadline - the one least likely to finish in time anyway - is
// shed and answered `overloaded`; that victim may be the incoming request
// itself. Requests without a deadline sort after every deadline-carrying
// request, so best-effort work is shed only when nothing time-constrained
// is waiting. Shedding work (not blocking producers) keeps connection
// threads responsive and bounds queue memory.
//
// close() wakes every popper but leaves queued requests in place: the
// executors keep popping until the queue is EMPTY and closed, which is the
// drain half of drain-then-exit shutdown.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>

#include "core/cancel.h"
#include "service/protocol.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aalign::service {

// One in-flight request: the parsed wire request plus its lifecycle state
// (cancellation token, timing marks, completion latch). Shared between the
// connection thread (waits / cancels) and the executor (completes).
struct PendingRequest {
  WireRequest req;
  core::CancelToken cancel;
  std::chrono::steady_clock::time_point arrival;
  // Resolved absolute deadline; time_point::max() when none was given.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  // Completion latch. complete() is called exactly once (enforced by the
  // service/queue ownership handoff); waiters observe the response after.
  void complete(WireResponse resp);
  // Blocks until complete(); returns the response.
  const WireResponse& wait();
  // Bounded wait for disconnect-polling loops; true once completed.
  bool wait_for(std::chrono::milliseconds timeout);

 private:
  // service.pending is near the bottom of the hierarchy: it guards only
  // the latch and never takes another lock underneath.
  mutable Mutex mu_{"service.pending"};
  CondVar cv_;
  bool done_ AALIGN_GUARDED_BY(mu_) = false;
  WireResponse resp_ AALIGN_GUARDED_BY(mu_);
};

// Builds a PendingRequest with arrival stamped now and the token's
// deadline armed from req.deadline_ms (when > 0).
std::shared_ptr<PendingRequest> make_pending(WireRequest req);

class RequestQueue {
 public:
  enum class PushOutcome {
    Accepted,       // queued; no shedding
    AcceptedShed,   // queued; an older request was shed (see *victim)
    RejectedShed,   // the incoming request itself was the shed victim
    Closed,         // queue is closed (server draining)
  };

  explicit RequestQueue(std::size_t capacity);

  // Never blocks. On AcceptedShed the shed request is returned through
  // `victim` for the caller to answer `overloaded` and count; the queue
  // itself never completes requests.
  PushOutcome push(std::shared_ptr<PendingRequest> r,
                   std::shared_ptr<PendingRequest>* victim);

  // Blocks until a request is available or the queue is closed AND empty
  // (then returns nullptr - the executor's exit signal).
  std::shared_ptr<PendingRequest> pop();

  // Stops admissions and wakes every popper; queued requests stay and
  // continue to be popped (drain). Idempotent.
  void close();

  std::size_t depth() const;

 private:
  const std::size_t capacity_;
  mutable Mutex mu_{"service.request_queue"};
  CondVar cv_;
  std::deque<std::shared_ptr<PendingRequest>> items_ AALIGN_GUARDED_BY(mu_);
  bool closed_ AALIGN_GUARDED_BY(mu_) = false;
};

}  // namespace aalign::service
