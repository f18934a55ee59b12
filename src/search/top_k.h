// Shared top-k hit selection for the search front-ends. Both the
// intra-sequence BatchScheduler and the inter-sequence search rank the
// same per-subject score vector; keeping the selection in one place keeps
// their tie-breaking (stable by database index) identical.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "search/database_search.h"
#include "seq/database.h"

namespace aalign::search {

// Re-indexes a score vector computed in the database's CURRENT (possibly
// length-sorted) order back to original insertion order, so results are
// stable under sort_database. No-op while the database is unpermuted.
inline void remap_scores_to_original(const seq::Database& db,
                                     std::vector<long>& scores) {
  if (!db.permuted()) return;
  std::vector<long> orig(scores.size());
  for (std::size_t pos = 0; pos < scores.size(); ++pos) {
    orig[db.original_index(pos)] = scores[pos];
  }
  scores = std::move(orig);
}

// Best `top_k` subjects by score, descending; ties resolve to the lower
// database index (partial_sort is not stable, so the index is part of the
// comparator — the ranking must not depend on the k requested).
inline std::vector<SearchHit> select_top_k(const std::vector<long>& scores,
                                           std::size_t top_k) {
  std::vector<SearchHit> hits;
  hits.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    hits.push_back(SearchHit{i, scores[i]});
  }
  const std::size_t k = std::min(top_k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(k),
                    hits.end(), [](const SearchHit& a, const SearchHit& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.index < b.index;
                    });
  hits.resize(k);
  return hits;
}

// select_top_k under a remapped index order: ties resolve to the lower
// MAPPED index (`index_map[i]`, e.g. the fleet-global original index of a
// shard slice) while the returned hits keep the LOCAL index `i` so the
// caller can still address its own database. With per-shard maps drawn
// from one global order, per-slice top-k lists merge into exactly the
// single-database select_top_k result. An empty map means identity.
inline std::vector<SearchHit> select_top_k_mapped(
    const std::vector<long>& scores, std::size_t top_k,
    std::span<const std::size_t> index_map) {
  if (index_map.empty()) return select_top_k(scores, top_k);
  std::vector<SearchHit> hits;
  hits.reserve(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    hits.push_back(SearchHit{i, scores[i]});
  }
  const std::size_t k = std::min(top_k, hits.size());
  std::partial_sort(hits.begin(), hits.begin() + static_cast<long>(k),
                    hits.end(),
                    [index_map](const SearchHit& a, const SearchHit& b) {
                      return a.score != b.score
                                 ? a.score > b.score
                                 : index_map[a.index] < index_map[b.index];
                    });
  hits.resize(k);
  return hits;
}

}  // namespace aalign::search
