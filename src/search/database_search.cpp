#include "search/database_search.h"

#include <utility>

#include "search/batch_scheduler.h"

namespace aalign::search {

DatabaseSearch::DatabaseSearch(const score::ScoreMatrix& matrix,
                               AlignConfig cfg, SearchOptions opt)
    : matrix_(matrix), cfg_(cfg), opt_(opt) {
  cfg_.validate();
}

// Both entry points build a scheduler per call: it owns a profile cache and
// a lazily built signature index, so a per-call instance keeps this class
// stateless and safe to share across threads.
SearchResult DatabaseSearch::search(std::span<const std::uint8_t> query,
                                    const seq::Database& db,
                                    const core::CancelToken* cancel) const {
  std::vector<SearchResult> out = BatchScheduler(matrix_, cfg_, opt_).run(
      {std::vector<std::uint8_t>(query.begin(), query.end())}, db, cancel);
  return std::move(out[0]);
}

std::vector<SearchResult> DatabaseSearch::search_many(
    const std::vector<std::vector<std::uint8_t>>& queries,
    const seq::Database& db, const core::CancelToken* cancel) const {
  return BatchScheduler(matrix_, cfg_, opt_).run(queries, db, cancel);
}

}  // namespace aalign::search
