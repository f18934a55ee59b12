// Two-stage search, stage one: k-mer bit signatures (the SSW/SWAPHI-style
// pre-filter the ROADMAP calls for). Every subject gets a fixed-width
// Bloom-style bitset of its k-mer hashes, built once at database load; a
// query is screened against all of them with one SIMD popcount-AND sweep
// (VecOps::popcount_and), and only subjects whose bias-corrected
// signature containment clears a calibrated threshold are routed into the
// exact precision-ladder rescoring path.
//
// Scoring model (docs/search.md derives the calibration):
//   q = |query signature|, s = |subject signature|
//   e = expected AND bits of an UNRELATED subject of this saturation,
//       from the database-calibrated background model below
//   score = (AND - e) / (min(q, s) - e)
// score is ~0 for unrelated sequences and approaches the aligned-region
// k-mer containment (~ identity^k * coverage) for homologs.
//
// Background model: amino-acid composition makes common k-mers shared by
// UNRELATED proteins, so the uniform-hash expectation q*s/B undershoots
// badly (measured: it leaves the background score mean near +0.06, not
// 0). A mean-based correction (per-bit document frequencies) fixes that
// but breaks the other way on homolog-rich databases: related subjects
// inflate the mean and depress every score. The scan instead measures
// the background EMPIRICALLY and ROBUSTLY: pass one computes AND_j for
// every subject (the SIMD sweep it was going to do anyway) and takes the
// median of the per-set-bit hit rates AND_j / s_j; pass two scores each
// subject against e_j = median_rate * s_j. The median is insensitive to
// homologs (they are the upper outliers) as long as they are under half
// the database; below FilterParams::min_background screened subjects the
// scan falls back to the uniform-hash expectation rather than trust a
// tiny sample. Every guard errs toward keeping a subject: short
// subjects/queries, empty signatures, and saturated (uninformative)
// signatures auto-pass, so the filter trades speed - never recall - when
// a signature cannot discriminate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "seq/database.h"
#include "simd/isa.h"
#include "simd/modules.h"
#include "util/aligned_buffer.h"

namespace aalign::filter {

// Per-request routing knob (wire value of aalignd's `filter` field):
//   Off  - exhaustive scan, bit-identical to the pre-filter era
//   On   - filter unconditionally (the caller asserts calibration holds)
//   Auto - filter only where the calibration applies (local alignment)
enum class FilterMode : std::uint8_t { Off, On, Auto };

const char* filter_mode_name(FilterMode mode);
std::optional<FilterMode> parse_filter_mode(std::string_view name);

struct FilterParams {
  int k = 3;                  // k-mer length
  std::size_t bits = 2048;    // signature width; must be a multiple of 512
  // Default calibrated containment threshold. Calibrated on planted
  // homologs down to the md-identity band (~50% identity with short
  // indels, the weakest hits the bench's recall gate protects): their
  // scores bottom out just above 0.01, while the corrected background
  // sits at ~0; see bench/bench_filter.cpp and docs/search.md.
  double threshold = 0.01;
  std::size_t min_subject = 24;  // shorter subjects always survive
  std::size_t min_query = 24;    // shorter queries disable the filter
  double min_informative = 24.0; // denominator floor before auto-pass
  double near_margin = 0.08;     // near-miss window for false-drop estimate
  // Screened subjects required before the empirical median background is
  // trusted; smaller databases use the uniform-hash expectation.
  std::size_t min_background = 8;
};

struct FilterStats {
  std::uint64_t candidates = 0;  // subjects screened
  std::uint64_t survivors = 0;   // subjects routed to exact rescoring
  std::uint64_t auto_pass = 0;   // survivors via guards, not signature score
  // Dropped subjects scoring within near_margin of the threshold: the
  // false-drop risk estimator (a calibrated filter keeps this near zero).
  std::uint64_t near_miss_drops = 0;

  double survivor_rate() const {
    return candidates == 0
               ? 1.0
               : static_cast<double>(survivors) / static_cast<double>(candidates);
  }
  double est_false_drop() const {
    return candidates == 0 ? 0.0
                           : static_cast<double>(near_miss_drops) /
                                 static_cast<double>(candidates);
  }
};

// Search-layer routing options (embedded in search::SearchOptions).
class SignatureIndex;
struct FilterOptions {
  FilterMode mode = FilterMode::Off;
  FilterParams params;
  double threshold = -1.0;  // per-request override; < 0 = params.threshold
  // Prebuilt index (service startup, benches). When null - or stale for
  // the database being searched - the search layer builds one on the fly.
  std::shared_ptr<const SignatureIndex> index;
};

// Sentinel score for subjects the filter dropped (never produced by a
// kernel: local scores are >= 0, and a 32-bit lane bottoms out at its
// neg_inf rail, min/2). Search layers strip trailing sentinel hits after
// top-k selection, making filtered top-k a prefix-consistent subset of the
// exhaustive ranking.
inline constexpr std::int32_t kDroppedScore =
    std::numeric_limits<std::int32_t>::min();
static_assert(kDroppedScore < simd::neg_inf<std::int32_t>(),
              "the dropped sentinel must rank below every kernel score");

// The query-side signature; build once, scan against many databases.
struct QuerySignature {
  util::AlignedBuffer<std::int32_t> words;
  std::uint64_t popcount = 0;
  std::size_t length = 0;
};

// The integrity check a zero-copy index defers to its first verify(): the
// owner of the arrays supplies `check` (store::MappedIndex hashes its
// signature sections; filter cannot name the store layer), and it runs at
// most once across every index and window() view that shares this state.
// The verdict is kept: a check that threw rethrows the same exception on
// every later run(). Concurrent first calls wait on the flag while one
// thread checks, the pattern of QueryContext's lazy tiers
// (docs/concurrency.md).
class DeferredCheck {
 public:
  explicit DeferredCheck(std::function<void()> check)
      : check_(std::move(check)) {}
  void run() const;

 private:
  std::function<void()> check_;
  mutable std::once_flag once_;
  mutable std::exception_ptr error_;  // written once, under once_
};

class SignatureIndex {
 public:
  SignatureIndex() = default;
  // Builds one signature per subject in the database's stored order,
  // which is fixed when the database is built.
  explicit SignatureIndex(const seq::Database& db, FilterParams params = {});

  // Rehydrates a prebuilt index (store::MappedIndex deserialization)
  // without re-hashing a single k-mer - and without touching the
  // filter.index_builds counter, so reuse is observable. `residues` is the
  // fingerprint matches() tests. Zero-copy: scans run directly over the
  // caller's arrays (the mapped index file), pinned alive by `backing`.
  // The blob must be 64-byte aligned with signatures packed at
  // words-per-signature stride - exactly the store section layout. Copies
  // of this index stay valid; they share the backing. `check` verifies the
  // arrays on the first verify() (null: the caller already verified them).
  SignatureIndex(FilterParams params, std::size_t count, std::size_t residues,
                 std::span<const std::int32_t> blob,
                 std::span<const std::uint32_t> popcounts,
                 std::span<const std::uint32_t> lengths,
                 std::shared_ptr<const void> backing,
                 std::shared_ptr<const DeferredCheck> check);

  // Subjects this index SCREENS: the window size for a window() view,
  // otherwise the whole blob. Serialization helpers below always cover
  // the full blob (window views are never persisted).
  std::size_t size() const { return win_count_; }
  const FilterParams& params() const { return params_; }
  std::size_t words_per_signature() const { return words_; }
  std::size_t residues() const { return residues_; }

  // Raw persisted state (store::build_index_bytes serializes these).
  std::span<const std::int32_t> blob() const {
    return {blob_data(), count_ * words_};
  }
  std::span<const std::uint32_t> popcounts() const {
    return {pop_data(), count_};
  }
  std::span<const std::uint32_t> lengths() const {
    return {len_data(), count_};
  }

  // True when this index plausibly describes `db` (size + residue-total
  // fingerprint). The check cannot tell two databases of the same size and
  // residue total apart; it only catches an index built for another one.
  bool matches(const seq::Database& db) const {
    return win_count_ == db.size() && residues_ == db.total_residues();
  }

  QuerySignature make_query_signature(std::span<const std::uint8_t> query) const;

  // Runs the deferred integrity check of a zero-copy index once, shared
  // with every window() view of it; throws the check's error (a
  // store.section_checksum StoreError for a mapped index) on this and every
  // later call. A no-op for built indexes and already-verified ones.
  // scan() calls it first, so no unverified signature is ever screened;
  // a component that will filter calls it when it is built, to fail early.
  void verify() const;

  // Shard-scoped view (gateway fleet, docs/deployment.md): screens only
  // subjects [first, first+count) — survivors are indexed window-locally
  // and matches() checks the SLICE database via `residues` — while the
  // empirical background median is still measured over the FULL blob.
  // That is what makes sharded filtering partition-invariant: each
  // verdict depends only on (whole-database median, AND_i, s_i), so a
  // shard fleet reproduces single-process drop decisions bit-for-bit.
  // The view shares this index's storage (zero-copy backing included).
  SignatureIndex window(std::size_t first, std::size_t count,
                        std::size_t residues) const;

  // Screens every subject: survivors[i] = 1 to rescore exactly, 0 to
  // drop, indexed by CURRENT database position. `isa` picks the
  // popcount-AND backend (falls back to scalar when unavailable);
  // `threshold` < 0 uses params().threshold. Deterministic: the verdict
  // depends only on signatures and the threshold, never on the ISA.
  // Calls verify() before it reads a signature byte.
  FilterStats scan(const QuerySignature& q, simd::IsaKind isa,
                   std::vector<std::uint8_t>& survivors,
                   double threshold = -1.0) const;
  FilterStats scan(std::span<const std::uint8_t> query, simd::IsaKind isa,
                   std::vector<std::uint8_t>& survivors,
                   double threshold = -1.0) const;

 private:
  void build_signature(std::span<const std::uint8_t> residues,
                       std::int32_t* words, std::uint64_t* popcount) const;

  // Extern pointers are null for owned indexes (built or copy-rehydrated)
  // and set for zero-copy ones; the accessors pick whichever is live.
  // The class is move-only (AlignedBuffer); window() hand-rolls the copy
  // it needs, sharing `backing_` for zero-copy sources.
  const std::int32_t* blob_data() const {
    return blob_p_ != nullptr ? blob_p_ : blob_.data();
  }
  const std::uint32_t* pop_data() const {
    return pop_p_ != nullptr ? pop_p_ : popcounts_.data();
  }
  const std::uint32_t* len_data() const {
    return len_p_ != nullptr ? len_p_ : lengths_.data();
  }

  FilterParams params_;
  std::size_t count_ = 0;     // subjects in the blob (background population)
  std::size_t win_first_ = 0; // screening window (window()); defaults to
  std::size_t win_count_ = 0; // the whole blob for non-view indexes
  std::size_t words_ = 0;     // int32 words per signature
  std::size_t residues_ = 0;  // fingerprint: db.total_residues() at build
                              // (window residues for a window() view)
  util::AlignedBuffer<std::int32_t> blob_;  // count_ * words_, 64-B strided
  std::vector<std::uint32_t> popcounts_;    // per-subject set-bit counts
  std::vector<std::uint32_t> lengths_;      // per-subject residue counts
  const std::int32_t* blob_p_ = nullptr;    // zero-copy view (mapped file)
  const std::uint32_t* pop_p_ = nullptr;
  const std::uint32_t* len_p_ = nullptr;
  std::shared_ptr<const void> backing_;     // pins the zero-copy views
  std::shared_ptr<const DeferredCheck> check_;  // null: nothing deferred
};

// True when the filter stage should run for this request shape: On always
// wins, Auto gates on the calibrated regime (local alignment), Off never.
bool filter_active(FilterMode mode, bool is_local);

}  // namespace aalign::filter
