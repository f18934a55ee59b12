// BatchScheduler: the search executor. Every intra-sequence database
// search - DatabaseSearch::search (one query), DatabaseSearch::search_many
// and the service's executors - runs here.
//
// A serial per-query loop runs whole queries back to back: every query
// rebuilds its QueryContext, spawns and joins a fresh worker set, and idles
// the pool on its subject tail. The scheduler instead flattens the whole
// workload into (query, subject-shard) tiles dispatched over a single
// work-stealing deque pool (search/thread_pool.h), so no worker idles while
// ANY query still has subjects left, and per-query state is built once and
// shared:
//
//   * logically immutable per-query state (core::QueryContext: the first
//     width's striped score profile, the wider ones built once on first
//     promotion, engine pointers) lives in an LRU keyed by (query bytes,
//     config) - repeated queries in a batch skip profile construction
//     entirely;
//   * per-tile KernelStats / promotion counters accumulate into per-worker
//     slots and are merged lock-free after the pool drains;
//   * every worker keeps one WorkspaceSet for the whole batch instead of
//     one per (query, worker).
//
// Determinism: a subject's score depends only on (query, subject, config),
// never on tile shape or scheduling, so batched results are bit-identical
// to a single-threaded per-subject loop for every thread count and shard
// size (tested against the oracle in tests/test_helpers.h).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/query_context.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "search/database_search.h"
#include "search/thread_pool.h"
#include "seq/database.h"

namespace aalign::search {

// Thread-safe LRU of built QueryContexts. The key is the exact byte string
// (encoded query + config/option fingerprint); each distinct key is built
// at most once across all threads (per-slot build lock), and hit/miss/
// eviction counters are exact.
class QueryProfileCache {
 public:
  explicit QueryProfileCache(std::size_t capacity);

  // Returns the context for (query, cfg, opt), building and inserting it
  // if absent. Throws what QueryContext's constructor throws (the failed
  // slot is removed, so a later retry re-builds).
  std::shared_ptr<const core::QueryContext> get_or_build(
      const score::ScoreMatrix& matrix, const AlignConfig& cfg,
      const core::QueryOptions& opt, std::span<const std::uint8_t> query);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::vector<std::uint8_t> key;   // immutable after insertion
    std::uint64_t hash = 0;          // immutable after insertion
    // Serializes the one-time context build; ordered *before* mu_ in the
    // lock hierarchy (the failed-build path takes mu_ under it).
    Mutex build_mu{"search.profile_cache.slot_build"};
    std::shared_ptr<const core::QueryContext> ctx
        AALIGN_GUARDED_BY(build_mu);
  };
  using SlotList = std::list<std::shared_ptr<Slot>>;

  void erase_slot_locked(const std::shared_ptr<Slot>& slot)
      AALIGN_REQUIRES(mu_);

  std::size_t capacity_;
  mutable Mutex mu_{"search.profile_cache"};
  SlotList lru_ AALIGN_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_multimap<std::uint64_t, SlotList::iterator> index_
      AALIGN_GUARDED_BY(mu_);
  std::uint64_t hits_ AALIGN_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ AALIGN_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ AALIGN_GUARDED_BY(mu_) = 0;
};

// Aggregate accounting of one BatchScheduler::run.
struct BatchStats {
  std::size_t queries = 0;
  std::size_t subjects = 0;
  std::size_t tiles = 0;
  std::size_t shard_size = 0;  // resolved value (after auto-sizing)
  int threads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t dedup_queries = 0;  // occurrences served by an identical
                                    // query's scan instead of their own
  PoolStats pool;            // steal counters of the tile run
  double wall_seconds = 0.0;
  double busy_seconds = 0.0;  // summed per-worker in-tile time
  double occupancy = 0.0;     // busy / (threads * wall), 1.0 = no idling
  std::size_t cells = 0;      // DP cells actually computed (after dedup)
  double gcups = 0.0;         // batch aggregate throughput
};

class BatchScheduler {
 public:
  // Distinct QueryContexts the profile LRU keeps across run() calls.
  static constexpr std::size_t kProfileCacheCapacity = 64;

  // Of `opt`, the scheduling knobs (threads, shard_size), the query kernel
  // options, the filter, and the result knobs (top_k, keep_all_scores) all
  // apply.
  BatchScheduler(const score::ScoreMatrix& matrix, AlignConfig cfg,
                 SearchOptions opt = {});

  // Runs every query against db, in its stored (longest-first) order;
  // db is only read. Results are in query order, scores/hits indexed by
  // ORIGINAL database index. Occurrences of byte-identical queries
  // (same cached context) are scanned once and share the result - still
  // bit-identical to scanning each occurrence, since the inputs are the
  // same. The profile cache persists across run() calls, so repeated
  // queries in later batches also hit.
  //
  // `cancel` (optional) is polled per tile/subject in the pool loop and
  // per stride-chunk inside the kernels. A fired token throws
  // core::CancelledError within one chunk per worker; completed tiles
  // keep nothing visible (no partial results escape), the pool joins
  // fully, and the scheduler (including its profile cache) stays usable
  // for the next run().
  std::vector<SearchResult> run(
      const std::vector<std::vector<std::uint8_t>>& queries,
      const seq::Database& db, const core::CancelToken* cancel = nullptr);

  const BatchStats& last_stats() const { return stats_; }
  const QueryProfileCache& cache() const { return cache_; }

  // Per-request filter routing (aalignd's `filter: on|off|auto`): applies
  // to the next run(). Not thread-safe against a concurrent run() - the
  // service's executors each own their scheduler, so the mutation is
  // always from the same thread that runs it.
  void set_filter_mode(filter::FilterMode mode) { opt_.filter.mode = mode; }

 private:
  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  SearchOptions opt_;
  QueryProfileCache cache_;
  BatchStats stats_;
  // Lazily built signature index for the last database run() saw; reused
  // across runs until the database fingerprint changes. A prebuilt
  // opt_.filter.index takes precedence.
  std::shared_ptr<const filter::SignatureIndex> index_;
};

}  // namespace aalign::search
