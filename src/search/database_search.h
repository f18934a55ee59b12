// Multi-threaded query-vs-database search (paper Sec. V-E): the query
// profile is built once (QueryContext), the database arrives stored
// longest first (seq::Database sorts when built), and worker threads pull
// subject shards from work-stealing deques, each with its own kernel
// workspace. DatabaseSearch is the stable front-end; every call runs on
// one search executor, BatchScheduler (search/batch_scheduler.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cancel.h"
#include "core/query_context.h"
#include "filter/signature.h"
#include "seq/database.h"

namespace aalign::search {

struct SearchOptions {
  int threads = 0;  // 0 = hardware concurrency
  core::QueryOptions query;
  std::size_t top_k = 10;
  bool keep_all_scores = true;  // retain the per-subject score vector

  // Subjects per (query, subject-shard) tile (search/batch_scheduler.h);
  // 0 = auto. Scores never depend on it.
  std::size_t shard_size = 0;

  // Two-stage search (docs/search.md): signature pre-filter routing only
  // surviving subjects into the exact scan. Off by default - the library
  // stays bit-identical to the exhaustive era unless a caller opts in.
  // When filtering, dropped subjects carry filter::kDroppedScore in the
  // per-subject score vector and never appear in `top`.
  filter::FilterOptions filter;
};

struct SearchHit {
  // ORIGINAL database index (the input order the database was built
  // from, not its longest-first storage): resolve the record with
  // db.by_original(index). Scores vectors use the same original indexing.
  std::size_t index = 0;
  long score = 0;
};

struct SearchResult {
  // Per subject, indexed by ORIGINAL database index (empty if
  // !keep_all_scores). Four bytes a subject, and exact: every score leaves
  // a kernel lane of 32 bits or fewer (intra widths int8/16/32, inter
  // precisions i8/i16/i32), so narrowing the kernels' `long` result loses
  // nothing. SearchHit::score and the wire's score stay `long`.
  std::vector<std::int32_t> scores;
  std::vector<SearchHit> top;  // best top_k, descending score
  double seconds = 0.0;
  std::size_t cells = 0;  // total m*n DP cells computed
  double gcups = 0.0;
  std::uint64_t promotions = 0;  // adaptive width retries over all subjects
  // Subjects still saturated at the widest width they ran (a forced narrow
  // width): their scores are clipped at the rail, not exact.
  std::uint64_t saturated = 0;
  KernelStats stats;             // aggregated kernel statistics
  bool filtered = false;         // the signature pre-filter stage ran
  filter::FilterStats filter_stats;  // meaningful only when `filtered`
};

class DatabaseSearch {
 public:
  DatabaseSearch(const score::ScoreMatrix& matrix, AlignConfig cfg,
                 SearchOptions opt = {});

  // One query: BatchScheduler::run({query}, db, cancel)[0] on a scheduler
  // built for this call; db is only read, so a DatabaseSearch is stateless
  // and safe to call from several threads, on one database too. `cancel`
  // (optional) is polled per tile in the pool loop and per stride-chunk
  // inside the kernels; a fired token aborts the scan within one chunk per
  // worker and throws core::CancelledError - a cancelled search never
  // returns partial scores.
  SearchResult search(std::span<const std::uint8_t> query,
                      const seq::Database& db,
                      const core::CancelToken* cancel = nullptr) const;

  // Many-vs-all: BatchScheduler::run over the whole batch, (query,
  // subject-shard) tiles on one work-stealing pool. Results are in query
  // order and bit-identical to one search() per query; each result's
  // `seconds` is the whole batch's wall clock.
  std::vector<SearchResult> search_many(
      const std::vector<std::vector<std::uint8_t>>& queries,
      const seq::Database& db,
      const core::CancelToken* cancel = nullptr) const;

 private:
  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  SearchOptions opt_;
};

}  // namespace aalign::search
