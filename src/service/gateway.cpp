#include "service/gateway.h"

#include "util/mutex.h"
#include "util/thread_annotations.h"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "service/client.h"

namespace aalign::service {

namespace {

using Clock = std::chrono::steady_clock;

// How long the gather waits on the shards before it polls the client
// probe and the shutdown flag again.
constexpr std::chrono::milliseconds kSlice{10};

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

WireResponse stopped_response(std::int64_t id, const core::CancelToken& tok) {
  return error_response(id,
                        tok.stop_reason() == core::StopReason::Cancelled
                            ? ErrorCode::Cancelled
                            : ErrorCode::DeadlineExceeded,
                        "request stopped");
}

// Merges the per-shard responses (ok=false => that shard contributed
// nothing) into the client's answer.
WireResponse merge(const WireRequest& req,
                   const std::vector<WireResponse>& responses) {
  WireResponse out;
  out.id = req.id;
  std::size_t ok_shards = 0;
  bool any_deadline = false;
  bool all_cancelled = true;
  for (const WireResponse& r : responses) {
    // A shard with nothing to search is a complete answer of zero hits,
    // not a partial result.
    if (r.ok || r.error == ErrorCode::EmptyDatabase) {
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
    return error_response(
        req.id, code,
        "all " + std::to_string(responses.size()) + " shards failed");
  }

  out.ok = true;
  out.incomplete = out.incomplete || ok_shards < responses.size();
  out.results.resize(req.queries.size());
  for (std::size_t q = 0; q < out.results.size(); ++q) {
    std::vector<WireHit>& merged = out.results[q].hits;
    for (const WireResponse& r : responses) {
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
  return out;
}

}  // namespace

// One backend: its address, its metric series (resolved once, so the
// backend lock is a leaf), the connections no scatter is using, and the
// reconnect backoff.
struct Gateway::Backend {
  Backend(std::size_t index, const std::string& endpoint,
          const GatewayOptions& gopt)
      : name(endpoint),
        latency(obs::registry().histogram(std::string("gateway.shard.")
                                              .append(std::to_string(index))
                                              .append(".latency_us"))),
        reconnects(obs::registry().counter("gateway.reconnects")),
        opt(gopt),
        backoff_ms(gopt.backoff_min_ms) {
    const std::size_t colon = endpoint.rfind(':');
    unsigned long p = 0;
    if (colon != std::string::npos) {
      host = endpoint.substr(0, colon);
      try {
        p = std::stoul(endpoint.substr(colon + 1));
      } catch (const std::exception&) {
        p = 0;
      }
    }
    if (host.empty() || p == 0 || p > 65535) {
      throw std::invalid_argument("Gateway: bad backend endpoint '" +
                                  endpoint + "' (want host:port)");
    }
    port = static_cast<std::uint16_t>(p);
  }

  // An idle connection whose peer is still there, or null. A dead one
  // is dropped on the way.
  std::unique_ptr<ServiceClient> take_idle() {
    MutexLock lock(mu);
    while (!idle.empty()) {
      std::unique_ptr<ServiceClient> c = std::move(idle.back());
      idle.pop_back();
      if (c->idle()) return c;
      dropped = true;
    }
    return nullptr;
  }

  // Ends a leg's use of `c`: pooled after a clean reply (unless the
  // gateway is shut down), closed otherwise.
  void release(std::unique_ptr<ServiceClient> c, bool clean) {
    MutexLock lock(mu);
    if (!clean) {
      dropped = true;
    } else if (!closed) {
      idle.push_back(std::move(c));
    }
  }

  void close_idle() {
    MutexLock lock(mu);
    closed = true;
    idle.clear();
  }

  // A new connection, bounded by the connect timeout and `deadline`;
  // null on failure, and at once while the backoff window that a failed
  // connect opened is still open.
  std::unique_ptr<ServiceClient> connect(Clock::time_point deadline) {
    const auto now = Clock::now();
    {
      MutexLock lock(mu);
      if (now < next_attempt) return nullptr;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (left <= 0) return nullptr;
    std::unique_ptr<ServiceClient> c;
    try {
      c = std::make_unique<ServiceClient>(
          host, port,
          std::max<std::int64_t>(1, std::min(opt.connect_timeout_ms, left)));
    } catch (const std::exception&) {
      MutexLock lock(mu);
      next_attempt = Clock::now() + std::chrono::milliseconds(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, opt.backoff_max_ms);
      return nullptr;
    }
    MutexLock lock(mu);
    backoff_ms = opt.backoff_min_ms;
    if (std::exchange(dropped, false)) reconnects.add();
    return c;
  }

  const std::string name;  // "host:port", for messages
  std::string host;
  std::uint16_t port = 0;
  obs::Histogram& latency;
  obs::Counter& reconnects;
  const GatewayOptions& opt;

  Mutex mu{"service.gateway.backend"};
  std::vector<std::unique_ptr<ServiceClient>> idle AALIGN_GUARDED_BY(mu);
  bool closed AALIGN_GUARDED_BY(mu) = false;
  // A connection was dropped since the last connect, so the next one is
  // a reconnect.
  bool dropped AALIGN_GUARDED_BY(mu) = false;
  std::int64_t backoff_ms AALIGN_GUARDED_BY(mu);
  Clock::time_point next_attempt AALIGN_GUARDED_BY(mu);
};

Gateway::Gateway(GatewayOptions opt) : opt_(std::move(opt)) {
  if (opt_.backends.empty()) {
    throw std::invalid_argument("Gateway: no backends configured");
  }
  opt_.merge_budget_ms = std::max<std::int64_t>(0, opt_.merge_budget_ms);
  opt_.backoff_min_ms = std::max<std::int64_t>(1, opt_.backoff_min_ms);
  opt_.backoff_max_ms = std::max(opt_.backoff_min_ms, opt_.backoff_max_ms);
  backends_.reserve(opt_.backends.size());
  for (std::size_t i = 0; i < opt_.backends.size(); ++i) {
    backends_.push_back(std::make_unique<Backend>(i, opt_.backends[i], opt_));
  }
}

Gateway::~Gateway() { shutdown(); }

void Gateway::shutdown() {
  closed_.store(true, std::memory_order_release);
  for (auto& b : backends_) b->close_idle();
}

std::size_t Gateway::backend_count() const { return backends_.size(); }

std::shared_ptr<PendingRequest> Gateway::submit(
    WireRequest req, const DisconnectProbe& client_gone) {
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
  } else if (closed_.load(std::memory_order_acquire)) {
    p->complete(error_response(r.id, ErrorCode::ServerShutdown,
                               "gateway is draining"));
  } else {
    p->complete(scatter(*p, client_gone));
  }
  return p;
}

WireResponse Gateway::scatter(PendingRequest& p,
                              const DisconnectProbe& client_gone) {
  const WireRequest& req = p.req;
  core::CancelToken& tok = p.cancel;
  WireRequest shard_req = req;
  Clock::time_point shard_deadline;
  if (req.deadline_ms > 0) {
    shard_req.deadline_ms =
        std::max<std::int64_t>(1, req.deadline_ms - opt_.merge_budget_ms);
    shard_deadline = p.arrival + std::chrono::milliseconds(shard_req.deadline_ms);
  } else {
    shard_req.deadline_ms = 0;  // the shards see no deadline...
    shard_deadline =            // ...but the gateway still bounds the wait
        p.arrival + std::chrono::milliseconds(opt_.no_deadline_wait_ms);
  }
  const std::string line = request_json(shard_req).dump();

  // A vanished client or a shutdown fires the token; the open legs are
  // then abandoned, and closing their connections makes the backends
  // cancel too.
  const auto stopped = [&] {
    if (closed_.load(std::memory_order_acquire) ||
        (client_gone && client_gone())) {
      tok.cancel();
    }
    return tok.stop_requested();
  };

  // A leg is open while it holds its connection. It goes back to the
  // pool after a clean reply and is closed on every failure.
  std::vector<std::unique_ptr<ServiceClient>> conns(backends_.size());
  std::vector<Clock::time_point> start(backends_.size());
  std::vector<WireResponse> responses(backends_.size());
  const auto finish = [&](std::size_t i, WireResponse r) {
    if (conns[i]) backends_[i]->release(std::move(conns[i]), r.ok);
    if (!r.ok && r.error == ErrorCode::DeadlineExceeded) {
      obs::registry().counter("gateway.shard_timeouts").add();
    }
    responses[i] = std::move(r);
  };

  // Pooled connections first, so the connects after them overlap those
  // shards' work. A pooled connection that fails the send is replaced.
  for (std::size_t i = 0; i < conns.size() && !tok.stop_requested(); ++i) {
    start[i] = Clock::now();
    conns[i] = backends_[i]->take_idle();
    if (conns[i] && !conns[i]->send_raw(line)) {
      backends_[i]->release(std::move(conns[i]), false);
    }
  }
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (conns[i]) continue;
    start[i] = Clock::now();
    if (stopped()) {
      finish(i, stopped_response(req.id, tok));
      continue;
    }
    conns[i] = backends_[i]->connect(shard_deadline);
    if (!conns[i]) {
      finish(i, error_response(req.id, ErrorCode::Internal,
                               "backend " + backends_[i]->name +
                                   " unreachable"));
    } else if (!conns[i]->send_raw(line)) {
      finish(i, error_response(req.id, ErrorCode::Internal,
                               "backend send failed"));
    }
  }

  // Gather: a reply is read as soon as it arrives, whichever shard sends
  // it, so each backend's latency is its own.
  std::vector<pollfd> fds;
  std::vector<std::size_t> open;
  for (;;) {
    fds.clear();
    open.clear();
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i]) continue;
      fds.push_back({conns[i]->fd(), POLLIN, 0});
      open.push_back(i);
    }
    if (open.empty()) break;
    const auto now = Clock::now();
    if (stopped() || now >= shard_deadline) {
      for (const std::size_t i : open) {
        finish(i, tok.stop_requested()
                      ? stopped_response(req.id, tok)
                      : error_response(req.id, ErrorCode::DeadlineExceeded,
                                       "shard response timed out"));
      }
      break;
    }
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        std::min<Clock::duration>(kSlice, shard_deadline - now));
    ::poll(fds.data(), fds.size(), static_cast<int>(wait.count()));
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      const std::size_t i = open[k];
      if (std::optional<WireResponse> r = conns[i]->read_available()) {
        backends_[i]->latency.record(us_between(start[i], Clock::now()));
        finish(i, std::move(*r));
      }
    }
  }

  obs::Registry& reg = obs::registry();
  const auto merge_start = Clock::now();
  reg.histogram("gateway.scatter_us").record(us_between(p.arrival, merge_start));
  WireResponse out = merge(req, responses);
  if (out.ok) {
    if (out.incomplete) reg.counter("gateway.partial_responses").add();
    reg.histogram("gateway.merge_us")
        .record(us_between(merge_start, Clock::now()));
  }
  return out;
}

}  // namespace aalign::service
