// SWPS3-style comparator (Szalkowski et al. 2008) for the Fig. 11a
// experiment: multi-threaded striped-iterate Smith-Waterman whose table
// buffers are char (8-bit) first, retrying a subject in short (16-bit)
// only when 8-bit saturates. The 8-bit working set halves cache pressure,
// which is exactly why the real SWPS3 overtakes AAlign's all-short kernel
// on long queries (paper Sec. VI-C) - the behaviour this stand-in
// preserves. No hybrid, no scan: iterate only, like the original.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "search/database_search.h"

namespace aalign::baselines {

class Swps3Like {
 public:
  Swps3Like(const score::ScoreMatrix& matrix, Penalties pen,
            std::optional<simd::IsaKind> isa = {}, int threads = 0);

  // Sorts `db` longest-first; `scores` and `top` are nonetheless indexed
  // by ORIGINAL database position, like every SearchResult.
  search::SearchResult search(std::span<const std::uint8_t> query,
                              seq::Database& db) const;

 private:
  const score::ScoreMatrix& matrix_;
  Penalties pen_;
  simd::IsaKind isa_;
  int threads_;
};

}  // namespace aalign::baselines
