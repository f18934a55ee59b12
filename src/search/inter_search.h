// Inter-sequence database search: batches of `lanes` subjects aligned
// simultaneously, one per vector lane. Complements the intra-sequence
// (striped) DatabaseSearch - the two SWAPHI modes the paper contrasts in
// Sec. VI-C. The database's longest-first storage order makes batches
// length-homogeneous, minimizing padding waste.
//
// One query per call, timed tier by tier: bench_inter_precision and
// ablate_inter_vs_intra read the per-tier numbers. It is not a many-query
// executor - BatchScheduler is the only one, and choosing this engine per
// tile from measured cost is an open roadmap item.
//
// The engine is adaptive-precision (the SSW/SWAPHI precision ladder): the
// whole database first runs on the narrowest lanes the backend offers
// (int8: 32 lanes on AVX2, 64 on AVX-512BW), lanes whose saturating score
// hit the positive rail are collected into a re-queue and re-batched at
// int16, and whatever still overflows finishes on the exact int32 tier.
// Because a narrow lane that did NOT saturate carries the exact score,
// results are bit-identical to an int32-only run for every database.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "core/inter_engine.h"
#include "search/database_search.h"

namespace aalign::search {

// Per-tier accounting of one tiered search.
struct InterTierStats {
  int lanes = 0;                // vector width of this tier (0 = not run)
  std::size_t subjects = 0;     // subjects attempted at this tier
  std::size_t batches = 0;      // batches dispatched
  std::size_t overflowed = 0;   // lanes re-queued to the next tier
  std::size_t cells = 0;        // DP cells actually computed here
  double seconds = 0.0;
  double gcups = 0.0;
};

struct InterSearchResult : SearchResult {
  // Indexed by core::InterPrecision (I8, I16, I32).
  std::array<InterTierStats, core::kInterPrecisionCount> tiers{};
};

class InterSequenceSearch {
 public:
  // Local (Smith-Waterman) alignment only. The backend is opt.query.isa;
  // opt.query.width is the first rung of the precision ladder: Auto and W8
  // start at the narrowest tier the backend offers, W16 at int16, and W32
  // runs the exact single tier (the baseline). Of the rest of `opt`, the
  // threads / top_k / keep_all_scores knobs apply; the striped-kernel
  // strategy, hybrid and lut fields are ignored. Throws
  // std::invalid_argument when the backend is unavailable here.
  InterSequenceSearch(const score::ScoreMatrix& matrix, Penalties pen,
                      SearchOptions opt);

  // `cancel` (optional) is polled per lane batch in the pool loop; a fired
  // token aborts within one batch per worker and throws
  // core::CancelledError - a cancelled search never returns partial scores.
  InterSearchResult search(std::span<const std::uint8_t> query,
                           const seq::Database& db,
                           const core::CancelToken* cancel = nullptr) const;

 private:
  Penalties pen_;
  SearchOptions opt_;
  core::InterTables tables_;  // the matrix, built once for every tier
};

}  // namespace aalign::search
