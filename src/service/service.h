// AlignService: the serving core of aalignd, independent of any
// transport. It owns the database and scoring config, validates and
// admits requests through a bounded RequestQueue (request_queue.h), and
// executes them on BatchScheduler-backed searches with full cooperative
// cancellation (core/cancel.h) - a request past its deadline or whose
// client vanished stops consuming cores within one kernel stride-chunk
// per worker.
//
// Every response comes from one exact path: the adaptive 8->16->32 width
// ladder, which for local alignment already starts at int8 and promotes
// only saturated subjects. Responses are bit-identical to direct library
// search_many() calls at any load (tested).
//
// Instrumentation (all through obs/): counters service.accepted /
// service.rejected / service.shed / service.cancelled /
// service.deadline_exceeded / service.completed,
// histograms service.queue_depth / service.queue_wait_us /
// service.latency_us.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "search/database_search.h"
#include "seq/database.h"
#include "service/handler.h"
#include "service/request_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aalign::service {

struct ServiceOptions {
  // Kernel/scheduling knobs (top_k / keep_all_scores are managed per
  // request by the service and ignored here).
  search::SearchOptions search;

  std::size_t queue_capacity = 64;  // waiting requests before shedding
  int executors = 1;                // executor threads (each runs the
                                    // internally-parallel scheduler)

  // Request validation limits; violations produce structured errors.
  std::size_t max_query_len = 100000;   // residues per query
  std::size_t max_queries = 256;        // queries per request
  std::size_t max_top_k = 10000;

  // Shard-slice serving (docs/deployment.md): maps this service's
  // ORIGINAL database indices onto the fleet-global original indices.
  // When non-empty (size must equal the database size), wire hits carry
  // the mapped index and top-k ties break on the mapped order, so a
  // gateway merge over disjoint slices reproduces the single-process
  // result bit-for-bit. Empty = identity (the normal whole-database case).
  std::vector<std::size_t> global_index_map;
};

class AlignService : public RequestHandler {
 public:
  // Takes ownership of the database. Unless the default filter mode is
  // Off, verifies the signature index first (SignatureIndex::verify), so a
  // corrupt mapped one throws its store.section_checksum error here.
  AlignService(const score::ScoreMatrix& matrix, AlignConfig cfg,
               seq::Database db, ServiceOptions opt = {});
  ~AlignService() override;  // implies shutdown()

  AlignService(const AlignService&) = delete;
  AlignService& operator=(const AlignService&) = delete;

  // Validates and enqueues. Always returns a handle whose response can be
  // waited on - validation failures and shed requests come back already
  // completed with the structured error; nothing throws across this
  // boundary. The caller may fire handle->cancel to abandon the request
  // (client disconnect); the executor then completes it as `cancelled`.
  // `client_gone` is unused: TcpServer polls it while it waits.
  std::shared_ptr<PendingRequest> submit(
      WireRequest req, const DisconnectProbe& client_gone = {}) override;

  // Synchronous convenience: submit + wait.
  WireResponse execute(WireRequest req);

  // Drain-then-exit: stops admissions, lets executors finish every queued
  // and in-flight request, joins them. Idempotent; the destructor calls it.
  void shutdown();

  std::size_t queue_depth() const { return queue_.depth(); }
  const seq::Database& database() const { return db_; }
  const ServiceOptions& options() const { return opt_; }

 private:
  void executor_loop(int executor_id);
  // "" when valid, else the message for the InvalidRequest-family error
  // (code through *code).
  std::string validate(const WireRequest& req, ErrorCode* code) const;

  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  ServiceOptions opt_;
  seq::Database db_;
  RequestQueue queue_;
  std::vector<std::thread> executors_;
  Mutex shutdown_mu_{"service.shutdown"};
  bool joined_ AALIGN_GUARDED_BY(shutdown_mu_) = false;
};

}  // namespace aalign::service
