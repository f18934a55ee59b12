#include "service/gateway.h"

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "service/client.h"

namespace aalign::service {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t us_between(Clock::time_point a, Clock::time_point b) {
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

// The merged ranking re-applies select_top_k's exact comparator (score
// desc, ORIGINAL index asc) on the wire hits. Deliberately reimplemented
// here: the gateway works on wire results only and includes nothing from
// search/ (arch_lint pins that).
bool hit_before(const WireHit& a, const WireHit& b) {
  return a.score != b.score ? a.score > b.score : a.index < b.index;
}

}  // namespace

// Shared state of one scattered request: every ShardClient records its
// outcome here; the last one to finish performs the merge and completes
// the client-facing handle.
struct Gateway::Scatter {
  std::shared_ptr<PendingRequest> pending;
  Clock::time_point shard_deadline;  // absolute bound on each shard call
  std::int64_t shard_deadline_ms = 0;  // relative budget sent on the wire
  Mutex mu{"service.gateway.scatter"};
  // Per shard; ok=false => no hits. The acq_rel fetch_sub on `remaining`
  // already publishes every slot to the merging thread; the lock makes
  // the guard checkable and costs nothing (the merge runs uncontended).
  std::vector<WireResponse> responses AALIGN_GUARDED_BY(mu);
  std::atomic<std::size_t> remaining{0};
};

// One backend: a worker thread owning the persistent connection.
// Requests are serialized per backend (the wire protocol pairs responses
// to requests by order); reconnects are lazy with bounded exponential
// backoff.
class Gateway::ShardClient {
 public:
  ShardClient(std::size_t index, const std::string& endpoint,
              const GatewayOptions& opt)
      : index_(index), opt_(opt), backoff_ms_(opt.backoff_min_ms) {
    const std::size_t colon = endpoint.rfind(':');
    unsigned long port = 0;
    if (colon != std::string::npos) {
      host_ = endpoint.substr(0, colon);
      try {
        port = std::stoul(endpoint.substr(colon + 1));
      } catch (const std::exception&) {
        port = 0;
      }
    }
    if (host_.empty() || port == 0 || port > 65535) {
      throw std::invalid_argument("Gateway: bad backend endpoint '" +
                                  endpoint + "' (want host:port)");
    }
    port_ = static_cast<std::uint16_t>(port);
    thread_ = std::thread([this] { worker(); });
  }

  ~ShardClient() { stop(); }

  void enqueue(std::shared_ptr<Scatter> s) {
    bool draining = false;
    {
      MutexLock lock(mu_);
      if (closed_) {
        draining = true;
      } else {
        queue_.push_back(s);
      }
    }
    if (draining) {
      // Raced a shutdown: fail this shard's leg so the scatter still
      // completes. Outside mu_: record() takes the scatter lock and may
      // run the whole merge, neither of which belongs under the queue
      // lock (shard_queue is ordered before scatter in the hierarchy,
      // but the merge also completes the pending latch).
      record(*s, error_response(s->pending->req.id,
                                ErrorCode::ServerShutdown,
                                "gateway is draining"));
      return;
    }
    cv_.notify_one();
  }

  // Drain-then-exit: queued scatters are still executed, then the worker
  // exits and the connection closes.
  void stop() {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    // Join strictly outside mu_: the draining worker must still take the
    // lock to pop its remaining jobs, so joining under it would deadlock
    // the drain. (The previous revision joined under mu_ on the repeated-
    // stop path - exactly the bug the lock discipline exists to prevent.)
    if (thread_.joinable()) thread_.join();
  }

 private:
  void worker() {
    for (;;) {
      std::shared_ptr<Scatter> job;
      {
        MutexLock lock(mu_);
        while (!closed_ && queue_.empty()) cv_.wait(lock);
        if (queue_.empty()) return;  // closed_ and drained
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      WireResponse r = run_one(*job);
      if (!r.ok && r.error == ErrorCode::DeadlineExceeded) {
        obs::registry().counter("gateway.shard_timeouts").add();
      }
      record(*job, std::move(r));
    }
  }

  void record(Scatter& s, WireResponse r) {
    {
      MutexLock lock(s.mu);
      s.responses[index_] = std::move(r);
    }
    if (s.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Gateway::merge_and_complete(s);
    }
  }

  // Executes one shard leg. Any non-ok return means this shard
  // contributed nothing (the merge marks the response incomplete); the
  // connection is dropped on every failure, both to propagate
  // cancellation to the backend (its disconnect detection fires the
  // backend-side CancelToken) and because an abandoned in-flight response
  // would desynchronize the in-order wire pairing.
  WireResponse run_one(Scatter& s) {
    const std::int64_t id = s.pending->req.id;
    core::CancelToken& tok = s.pending->cancel;
    if (tok.stop_requested()) {
      conn_.reset();
      return error_response(
          id,
          tok.stop_reason() == core::StopReason::Cancelled
              ? ErrorCode::Cancelled
              : ErrorCode::DeadlineExceeded,
          "request stopped before scatter");
    }
    const auto t0 = Clock::now();
    if (!conn_.has_value() && !connect(s, id)) {
      return error_response(id, ErrorCode::Internal,
                            "backend " + host_ + ":" + std::to_string(port_) +
                                " unreachable");
    }
    WireRequest shard_req = s.pending->req;
    shard_req.deadline_ms = s.shard_deadline_ms;
    if (!conn_->send_only(shard_req)) {
      conn_.reset();
      return error_response(id, ErrorCode::Internal, "backend send failed");
    }
    WireResponse r = conn_->read_response_until(s.shard_deadline, &tok);
    // Runtime-assembled per-shard series (the `gateway.shard.*` wildcard
    // row in docs/observability.md).
    const std::string latency_metric =
        "gateway.shard." + std::to_string(index_) + ".latency_us";
    obs::registry().histogram(latency_metric).record(
        us_between(t0, Clock::now()));
    if (!r.ok) {
      conn_.reset();
      if (r.error == ErrorCode::EmptyDatabase) {
        // A shard with nothing to search is a complete answer of zero
        // hits, not a partial result.
        WireResponse empty;
        empty.id = id;
        empty.ok = true;
        empty.results.resize(s.pending->req.queries.size());
        return empty;
      }
      r.id = id;
      return r;
    }
    return r;
  }

  // Establishes the persistent connection, bounded by both the connect
  // timeout and this scatter's deadline, and respecting the backoff
  // window from earlier failures.
  bool connect(Scatter& s, std::int64_t id) {
    (void)id;
    // Sleep out the backoff window in short slices so a cancel or the
    // shard deadline still cuts the wait short.
    while (Clock::now() < next_attempt_) {
      if (tok_stopped(s) || Clock::now() >= s.shard_deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          s.shard_deadline - Clock::now())
                          .count();
    if (left <= 0) return false;
    const std::int64_t budget =
        std::max<std::int64_t>(1, std::min(opt_.connect_timeout_ms, left));
    try {
      conn_.emplace(host_, port_, budget);
    } catch (const std::exception&) {
      next_attempt_ = Clock::now() + std::chrono::milliseconds(backoff_ms_);
      backoff_ms_ = std::min(backoff_ms_ * 2, opt_.backoff_max_ms);
      return false;
    }
    backoff_ms_ = opt_.backoff_min_ms;
    next_attempt_ = Clock::time_point{};
    if (connected_once_) obs::registry().counter("gateway.reconnects").add();
    connected_once_ = true;
    return true;
  }

  static bool tok_stopped(Scatter& s) {
    return s.pending->cancel.stop_requested();
  }

  std::size_t index_;
  const GatewayOptions& opt_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::optional<ServiceClient> conn_;
  std::int64_t backoff_ms_;
  Clock::time_point next_attempt_{};
  bool connected_once_ = false;

  Mutex mu_{"service.gateway.shard_queue"};
  CondVar cv_;
  std::deque<std::shared_ptr<Scatter>> queue_ AALIGN_GUARDED_BY(mu_);
  bool closed_ AALIGN_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

Gateway::Gateway(GatewayOptions opt) : opt_(std::move(opt)) {
  if (opt_.backends.empty()) {
    throw std::invalid_argument("Gateway: no backends configured");
  }
  opt_.merge_budget_ms = std::max<std::int64_t>(0, opt_.merge_budget_ms);
  opt_.backoff_min_ms = std::max<std::int64_t>(1, opt_.backoff_min_ms);
  opt_.backoff_max_ms = std::max(opt_.backoff_min_ms, opt_.backoff_max_ms);
  shards_.reserve(opt_.backends.size());
  for (std::size_t i = 0; i < opt_.backends.size(); ++i) {
    shards_.push_back(
        std::make_unique<ShardClient>(i, opt_.backends[i], opt_));
  }
}

Gateway::~Gateway() { shutdown(); }

void Gateway::shutdown() {
  if (joined_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& s : shards_) s->stop();
}

std::size_t Gateway::backend_count() const { return shards_.size(); }

std::shared_ptr<PendingRequest> Gateway::submit(WireRequest req) {
  std::shared_ptr<PendingRequest> p = make_pending(std::move(req));
  const WireRequest& r = p->req;

  // Local validation mirrors AlignService's request-shape checks so a bad
  // request never touches the fleet.
  std::string err;
  if (r.queries.empty()) {
    err = "request carries no queries";
  } else if (r.queries.size() > opt_.max_queries) {
    err = "too many queries (" + std::to_string(r.queries.size()) +
          " > limit " + std::to_string(opt_.max_queries) + ")";
  } else if (r.top_k == 0) {
    err = "top_k must be >= 1";
  } else if (r.top_k > opt_.max_top_k) {
    err = "top_k " + std::to_string(r.top_k) + " exceeds limit " +
          std::to_string(opt_.max_top_k);
  } else {
    for (const std::string& q : r.queries) {
      if (q.empty()) {
        err = "queries must be non-empty";
        break;
      }
    }
  }
  if (!err.empty()) {
    p->complete(error_response(r.id, ErrorCode::InvalidRequest, err));
    return p;
  }
  if (joined_.load(std::memory_order_acquire)) {
    p->complete(error_response(r.id, ErrorCode::ServerShutdown,
                               "gateway is draining"));
    return p;
  }

  auto s = std::make_shared<Scatter>();
  s->pending = p;
  if (r.deadline_ms > 0) {
    s->shard_deadline_ms =
        std::max<std::int64_t>(1, r.deadline_ms - opt_.merge_budget_ms);
    s->shard_deadline =
        p->arrival + std::chrono::milliseconds(s->shard_deadline_ms);
  } else {
    s->shard_deadline_ms = 0;  // the shards see no deadline...
    s->shard_deadline =        // ...but the gateway still bounds the wait
        p->arrival + std::chrono::milliseconds(opt_.no_deadline_wait_ms);
  }
  s->responses.resize(shards_.size());
  s->remaining.store(shards_.size(), std::memory_order_release);
  for (auto& shard : shards_) shard->enqueue(s);
  return p;
}

void Gateway::merge_and_complete(Scatter& s) {
  // Last finisher: no other thread touches this scatter any more, but
  // the responses are formally guarded, so hold the lock for the read
  // (uncontended by construction). pending->complete() is called under
  // it - scatter orders before service.pending in the hierarchy.
  MutexLock lock(s.mu);
  obs::Registry& reg = obs::registry();
  const auto merge_start = Clock::now();
  reg.histogram("gateway.scatter_us")
      .record(us_between(s.pending->arrival, merge_start));

  const WireRequest& req = s.pending->req;
  const std::size_t nq = req.queries.size();

  WireResponse out;
  out.id = req.id;
  std::size_t ok_shards = 0;
  bool any_deadline = false;
  bool all_cancelled = true;
  for (const WireResponse& r : s.responses) {
    if (r.ok) {
      ++ok_shards;
      out.filtered = out.filtered || r.filtered;
      // A nested gateway's partial answer keeps the marking.
      out.incomplete = out.incomplete || r.incomplete;
      out.queue_ms = std::max(out.queue_ms, r.queue_ms);
      out.exec_ms = std::max(out.exec_ms, r.exec_ms);
    } else {
      any_deadline = any_deadline || r.error == ErrorCode::DeadlineExceeded;
      if (r.error != ErrorCode::Cancelled) all_cancelled = false;
    }
  }

  if (ok_shards == 0) {
    // Nothing survived: a structured error, never an empty "success".
    const ErrorCode code = all_cancelled         ? ErrorCode::Cancelled
                           : any_deadline        ? ErrorCode::DeadlineExceeded
                                                 : ErrorCode::Internal;
    s.pending->complete(error_response(
        req.id, code,
        "all " + std::to_string(s.responses.size()) + " shards failed"));
    return;
  }

  out.ok = true;
  out.incomplete = out.incomplete || ok_shards < s.responses.size();
  out.results.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    std::vector<WireHit>& merged = out.results[q].hits;
    for (const WireResponse& r : s.responses) {
      if (!r.ok || q >= r.results.size()) continue;
      merged.insert(merged.end(), r.results[q].hits.begin(),
                    r.results[q].hits.end());
    }
    // Each shard list is already ranked under the global order, so the
    // concatenation's top-k is the exact global top-k.
    const std::size_t k = std::min(req.top_k, merged.size());
    std::partial_sort(merged.begin(), merged.begin() + static_cast<long>(k),
                      merged.end(), hit_before);
    merged.resize(k);
  }

  if (out.incomplete) reg.counter("gateway.partial_responses").add();
  reg.histogram("gateway.merge_us")
      .record(us_between(merge_start, Clock::now()));
  s.pending->complete(std::move(out));
}

}  // namespace aalign::service
