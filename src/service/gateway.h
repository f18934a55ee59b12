// Scatter-gather gateway: the fleet front end of a sharded deployment
// (docs/deployment.md). One Gateway speaks the same newline-JSON protocol
// as aalignd itself (it plugs into TcpServer through RequestHandler), and
// fulfils each request by scattering it across shard-scoped aalignd
// backends and merging their per-shard top-k.
//
// Correctness contract:
//   * each backend serves a disjoint slice of one index and reports hits
//     under the fleet-global ORIGINAL indices (ServiceOptions::
//     global_index_map), ranked by the global (score desc, index asc)
//     order - so concatenating per-shard top-k lists and re-applying the
//     same comparator reproduces the single-process result bit-for-bit;
//   * a shard that is down or misses its deadline contributes nothing and
//     the merged response carries incomplete=true - the hits present are
//     still exact, a response is never silently partial;
//   * the client-side deadline is propagated as a per-shard deadline of
//     (deadline_ms - merge_budget_ms), and a fired CancelToken (client
//     disconnect) closes the shard connections, which the backends'
//     disconnect-detection turns into their own cancellation.
//
// Each request is scattered, gathered and merged on the thread that calls
// submit() (pooled connections are sent to first, then any connects).
// Each backend pools the connections of earlier requests: one goes back
// only after a clean reply and is dropped on every failure, so a backend
// has as many requests in flight as the gateway has callers, and each
// connection keeps the wire's in-order pairing.
//
// The merge works on wire results only - this layer deliberately includes
// nothing from search/ (arch_lint's no-include invariant), so the gateway
// cannot quietly grow a dependency on local execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/handler.h"

namespace aalign::service {

struct GatewayOptions {
  // "host:port" per shard backend, shard order. At least one is required
  // (the constructor throws std::invalid_argument otherwise).
  std::vector<std::string> backends;

  // Subtracted from a request's deadline_ms to form the per-shard
  // deadline, reserving headroom for the merge + response write. A
  // request without a deadline imposes none on the shards.
  std::int64_t merge_budget_ms = 20;

  // Bound on establishing one backend connection (a dead shard fails
  // fast; see ServiceClient).
  std::int64_t connect_timeout_ms = 1000;

  // After a failed connect, the backend's legs fail at once for this
  // backoff window, which doubles from min to max.
  std::int64_t backoff_min_ms = 50;
  std::int64_t backoff_max_ms = 2000;

  // Bound on awaiting a shard response when the request itself carries no
  // deadline (a wedged shard must not pin a calling thread forever).
  std::int64_t no_deadline_wait_ms = 60000;

  // Request validation limits (mirrors ServiceOptions; violations are
  // answered locally without touching the fleet).
  std::size_t max_queries = 256;
  std::size_t max_top_k = 10000;
};

class Gateway : public RequestHandler {
 public:
  explicit Gateway(GatewayOptions opt);
  ~Gateway() override;  // implies shutdown()

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  // Scatters to every backend and merges on the calling thread; returns
  // once every shard responded, failed, or timed out, with the handle
  // already complete. Polls `client_gone` between 10 ms waits and fires
  // the request's token when it reports true. Same no-throw contract as
  // AlignService::submit.
  std::shared_ptr<PendingRequest> submit(
      WireRequest req, const DisconnectProbe& client_gone = {}) override;

  // Rejects new requests (server_shutdown), closes the idle connections,
  // and makes in-flight scatters abandon their open legs as if the client
  // had gone. Does not wait for them: stop the TcpServer in front first.
  // Idempotent; the destructor calls it.
  void shutdown();

  std::size_t backend_count() const;

 private:
  struct Backend;

  WireResponse scatter(PendingRequest& p, const DisconnectProbe& client_gone);

  GatewayOptions opt_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::atomic<bool> closed_{false};
};

}  // namespace aalign::service
