#include "service/request_queue.h"

#include <algorithm>

namespace aalign::service {

void PendingRequest::complete(WireResponse resp) {
  {
    MutexLock lock(mu_);
    if (done_) return;  // defensive: first completion wins
    resp_ = std::move(resp);
    done_ = true;
  }
  cv_.notify_all();
}

const WireResponse& PendingRequest::wait() {
  MutexLock lock(mu_);
  while (!done_) cv_.wait(lock);
  // resp_ is immutable once done_ is set; the reference stays valid after
  // the lock drops.
  return resp_;
}

bool PendingRequest::wait_for(std::chrono::milliseconds timeout) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (!done_) {
    if (cv_.wait_until(lock, until) == std::cv_status::timeout) {
      return done_;  // one last predicate check after the deadline
    }
  }
  return true;
}

std::shared_ptr<PendingRequest> make_pending(WireRequest req) {
  auto p = std::make_shared<PendingRequest>();
  p->arrival = std::chrono::steady_clock::now();
  if (req.deadline_ms > 0) {
    p->deadline = p->arrival + std::chrono::milliseconds(req.deadline_ms);
    p->cancel.set_deadline(p->deadline);
  }
  p->req = std::move(req);
  return p;
}

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

RequestQueue::PushOutcome RequestQueue::push(
    std::shared_ptr<PendingRequest> r,
    std::shared_ptr<PendingRequest>* victim) {
  if (victim != nullptr) victim->reset();
  {
    MutexLock lock(mu_);
    if (closed_) return PushOutcome::Closed;
    if (items_.size() < capacity_) {
      items_.push_back(std::move(r));
      cv_.notify_one();
      return PushOutcome::Accepted;
    }
    // Full: shed the earliest deadline among {queued, incoming}. Stable
    // preference for queued victims on ties, so a same-deadline incoming
    // request displaces an equally doomed older one (FIFO fairness).
    auto it = std::min_element(
        items_.begin(), items_.end(),
        [](const std::shared_ptr<PendingRequest>& a,
           const std::shared_ptr<PendingRequest>& b) {
          return a->deadline < b->deadline;
        });
    if ((*it)->deadline <= r->deadline) {
      if (victim != nullptr) *victim = *it;
      *it = std::move(r);
      cv_.notify_one();
      return PushOutcome::AcceptedShed;
    }
  }
  return PushOutcome::RejectedShed;
}

std::shared_ptr<PendingRequest> RequestQueue::pop() {
  MutexLock lock(mu_);
  while (!closed_ && items_.empty()) cv_.wait(lock);
  if (items_.empty()) return nullptr;  // closed and drained
  std::shared_ptr<PendingRequest> r = std::move(items_.front());
  items_.pop_front();
  return r;
}

void RequestQueue::close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth() const {
  MutexLock lock(mu_);
  return items_.size();
}

}  // namespace aalign::service
