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

// Re-indexes a score vector computed in the database's stored
// (longest-first) order back to original input order. No-op while the
// database is unpermuted. The search executors write each score at
// db.original_index(pos) directly and never need this copy; the serial
// test oracle and bench/ledger do.
template <class T>
void remap_scores_to_original(const seq::Database& db,
                              std::vector<T>& scores) {
  if (!db.permuted()) return;
  std::vector<T> orig(scores.size());
  for (std::size_t pos = 0; pos < scores.size(); ++pos) {
    orig[db.original_index(pos)] = scores[pos];
  }
  scores = std::move(orig);
}

// The `k` best hits of `scores` under `better` (a strict total order:
// better(a, b) when a ranks ahead of b), best first. Holds a k-entry heap
// whose front is the worst hit kept, so the selection never allocates for
// the whole score vector; with a total order the result is exactly the
// first k of a full sort. The element type is the executors' int32_t or a
// caller's long; hits widen it to SearchHit::score.
template <class T, class Better>
std::vector<SearchHit> select_top_k_by(const std::vector<T>& scores,
                                       std::size_t top_k, Better better) {
  const std::size_t k = std::min(top_k, scores.size());
  std::vector<SearchHit> heap;
  heap.reserve(k);
  if (k == 0) return heap;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const SearchHit hit{i, scores[i]};
    if (heap.size() < k) {
      heap.push_back(hit);
      std::push_heap(heap.begin(), heap.end(), better);
    } else if (better(hit, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), better);
      heap.back() = hit;
      std::push_heap(heap.begin(), heap.end(), better);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), better);
  return heap;
}

// Best `top_k` subjects by score, descending; ties resolve to the lower
// database index (the index is part of the order, so the ranking does not
// depend on the k requested).
template <class T>
std::vector<SearchHit> select_top_k(const std::vector<T>& scores,
                                    std::size_t top_k) {
  return select_top_k_by(scores, top_k,
                         [](const SearchHit& a, const SearchHit& b) {
                           return a.score != b.score ? a.score > b.score
                                                     : a.index < b.index;
                         });
}

// select_top_k under a remapped index order: ties resolve to the lower
// MAPPED index (`index_map[i]`, e.g. the fleet-global original index of a
// shard slice) while the returned hits keep the LOCAL index `i` so the
// caller can still address its own database. With per-shard maps drawn
// from one global order, per-slice top-k lists merge into exactly the
// single-database select_top_k result. An empty map means identity.
template <class T>
std::vector<SearchHit> select_top_k_mapped(
    const std::vector<T>& scores, std::size_t top_k,
    std::span<const std::size_t> index_map) {
  if (index_map.empty()) return select_top_k(scores, top_k);
  return select_top_k_by(scores, top_k,
                         [index_map](const SearchHit& a, const SearchHit& b) {
                           return a.score != b.score
                                      ? a.score > b.score
                                      : index_map[a.index] < index_map[b.index];
                         });
}

}  // namespace aalign::search
