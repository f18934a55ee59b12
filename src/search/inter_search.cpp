#include "search/inter_search.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/instrument.h"
#include "search/thread_pool.h"
#include "search/top_k.h"
#include "util/stopwatch.h"

namespace aalign::search {

namespace {
// Batch-padding score: strongly negative so finished lanes decay to zero,
// and inside the int8 tier's range.
constexpr std::int8_t kPadScore = -64;

core::InterPrecision start_precision(ScoreWidth w) {
  switch (w) {
    case ScoreWidth::W16: return core::InterPrecision::I16;
    case ScoreWidth::W32: return core::InterPrecision::I32;
    case ScoreWidth::W8:
    case ScoreWidth::Auto: return core::InterPrecision::I8;
  }
  return core::InterPrecision::I8;
}

// Per-worker reusable scratch: kernel working sets for every tier plus the
// batch marshalling arrays, allocated once and recycled across all batches
// of all tiers (no per-batch heap traffic in the hot loops).
struct LadderScratch {
  core::WorkspaceSet ws;
  std::vector<const std::uint8_t*> ptrs;
  std::vector<int> lens;
  std::vector<long> lane_scores;
  std::vector<std::size_t> requeue;   // lanes that saturated this tier
  std::size_t cells = 0;
};

// Marshals lanes [begin, begin+count) of `pending` into one batch at
// precision `prec` and runs it. Scores land in `scores` at each subject's
// ORIGINAL database index; saturated lanes are appended to
// scratch.requeue; the DP cells actually computed accumulate into
// scratch.cells.
void run_one_batch(const core::InterEngine& engine, core::InterPrecision prec,
                   int W, const core::InterTables& tables,
                   std::span<const std::uint8_t> query, const Penalties& pen,
                   const seq::Database& db,
                   const std::vector<std::size_t>& pending,
                   std::size_t begin, std::size_t count, LadderScratch& w,
                   std::int32_t* scores) {
  int max_len = 0;
  std::size_t residues = 0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(W); ++l) {
    // Tail batch: repeat the first subject in unused lanes (their scores
    // are simply discarded).
    const std::size_t idx = pending[begin + (l < count ? l : 0)];
    const auto subject = db.residues(idx);
    w.ptrs[l] = subject.data();
    w.lens[l] = static_cast<int>(subject.size());
    max_len = std::max(max_len, w.lens[l]);
    if (l < count) residues += subject.size();
  }

  core::InterBatchInput in{&tables, query, w.ptrs.data(), w.lens.data(),
                           max_len};
  const std::uint64_t overflow =
      engine.run(prec, in, pen, w.ws, w.lane_scores.data());
  for (std::size_t l = 0; l < count; ++l) {
    const std::size_t idx = pending[begin + l];
    if ((overflow >> l) & 1u) {
      w.requeue.push_back(idx);  // saturated: retry at wider precision
    } else {
      scores[db.original_index(idx)] =
          static_cast<std::int32_t>(w.lane_scores[l]);
    }
  }
  w.cells += query.size() * residues;
}

core::InterTables inter_tables(const score::ScoreMatrix& matrix) {
  return {score::transposed_profile_tables<std::int8_t>(matrix, kPadScore),
          score::transposed_profile_tables<std::int16_t>(matrix, kPadScore),
          score::transposed_profile_tables<std::int32_t>(matrix, kPadScore)};
}

// Resets a worker's scratch for a new tier of width W.
void reset_scratch_for_tier(LadderScratch& w, int W) {
  w.ptrs.assign(static_cast<std::size_t>(W), nullptr);
  w.lens.assign(static_cast<std::size_t>(W), 0);
  w.lane_scores.assign(static_cast<std::size_t>(W), 0);
  w.requeue.clear();
  w.cells = 0;
}
}  // namespace

InterSequenceSearch::InterSequenceSearch(const score::ScoreMatrix& matrix,
                                         Penalties pen, SearchOptions opt)
    : pen_(pen),
      opt_(opt),
      tables_(inter_tables(matrix)) {
  if (core::get_inter_engine(opt_.query.isa) == nullptr) {
    throw std::invalid_argument(
        "InterSequenceSearch: backend unavailable on this machine");
  }
}

InterSearchResult InterSequenceSearch::search(
    std::span<const std::uint8_t> query, const seq::Database& db,
    const core::CancelToken* cancel) const {
  if (query.empty()) {
    throw std::invalid_argument("InterSequenceSearch: empty query");
  }
  // The kernel reads one column-profile row per query byte (subject bytes
  // are checked as the kernel fills its lanes).
  for (const std::uint8_t c : query) {
    if (c >= tables_.i32.alpha) {
      throw std::invalid_argument("InterSequenceSearch: query symbol " +
                                  std::to_string(c) +
                                  " outside the alphabet");
    }
  }
  const core::InterEngine* engine = core::get_inter_engine(opt_.query.isa);

  const int threads = opt_.threads > 0 ? opt_.threads : default_thread_count();
  std::vector<std::int32_t> scores(db.size());  // by ORIGINAL database index

  std::vector<LadderScratch> workers(
      static_cast<std::size_t>(std::max(1, threads)));

  InterSearchResult res;

  // Indices (into the sorted database) still needing a score. The ladder
  // walks narrow -> wide; whatever saturates a tier is re-batched for the
  // next one. Ascending index order keeps re-queued batches as
  // length-homogeneous as the stored order made them.
  std::vector<std::size_t> pending(db.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});

  util::Stopwatch total;
  for (int ti = static_cast<int>(start_precision(opt_.query.width));
       ti < core::kInterPrecisionCount; ++ti) {
    const auto prec = static_cast<core::InterPrecision>(ti);
    const int W = engine->lanes(prec);
    if (W == 0 || pending.empty()) continue;  // tier absent on this backend
    // Per-tier poll: a token that fired during the previous tier stops the
    // ladder before its re-queue is re-batched.
    if (core::stop_requested(cancel)) core::throw_cancelled(*cancel);

    for (auto& w : workers) reset_scratch_for_tier(w, W);

    const std::size_t batches =
        (pending.size() + static_cast<std::size_t>(W) - 1) /
        static_cast<std::size_t>(W);
    util::Stopwatch timer;
    parallel_for_work_stealing(batches, threads, [&](int id, std::size_t b) {
      LadderScratch& w = workers[static_cast<std::size_t>(id)];
      const std::size_t begin = b * static_cast<std::size_t>(W);
      const std::size_t count =
          std::min<std::size_t>(W, pending.size() - begin);
      run_one_batch(*engine, prec, W, tables_, query, pen_, db, pending,
                    begin, count, w, scores.data());
    }, nullptr, cancel);

    InterTierStats& tier = res.tiers[static_cast<std::size_t>(ti)];
    tier.lanes = W;
    tier.subjects = pending.size();
    tier.batches = batches;
    tier.seconds = timer.seconds();

    std::vector<std::size_t> next;
    for (const auto& w : workers) {
      next.insert(next.end(), w.requeue.begin(), w.requeue.end());
      tier.cells += w.cells;
    }
    std::sort(next.begin(), next.end());
    tier.overflowed = next.size();
    tier.gcups = util::gcups_cells(tier.cells, tier.seconds);
    obs::record_inter_tier(ti, tier);
    res.promotions += next.size();
    pending = std::move(next);
  }

  res.seconds = total.seconds();
  // Logical problem size (comparable across precision policies); the
  // per-tier stats carry the cells actually computed, re-runs included.
  res.cells = query.size() * db.total_residues();
  res.gcups = util::gcups_cells(res.cells, res.seconds);

  res.top = select_top_k(scores, opt_.top_k);
  if (opt_.keep_all_scores) res.scores = std::move(scores);
  return res;
}

}  // namespace aalign::search
