#include "filter/signature.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/instrument.h"
#include "simd/primitives.h"

namespace aalign::filter {

namespace {

// FNV-1a over the k residue codes; one bit per k-mer keeps signatures
// sparse, which is what makes the containment score discriminate (a
// multi-hash Bloom fill would saturate mid-length subjects).
inline std::uint32_t kmer_hash(const std::uint8_t* p, int k) {
  std::uint32_t h = 2166136261u;
  for (int j = 0; j < k; ++j) h = (h ^ p[j]) * 16777619u;
  return h;
}

}  // namespace

const char* filter_mode_name(FilterMode mode) {
  switch (mode) {
    case FilterMode::Off:
      return "off";
    case FilterMode::On:
      return "on";
    case FilterMode::Auto:
      return "auto";
  }
  return "off";
}

std::optional<FilterMode> parse_filter_mode(std::string_view name) {
  if (name == "off") return FilterMode::Off;
  if (name == "on") return FilterMode::On;
  if (name == "auto") return FilterMode::Auto;
  return std::nullopt;
}

bool filter_active(FilterMode mode, bool is_local) {
  switch (mode) {
    case FilterMode::Off:
      return false;
    case FilterMode::On:
      return true;
    case FilterMode::Auto:
      return is_local;  // the calibrated regime (docs/search.md)
  }
  return false;
}

SignatureIndex::SignatureIndex(const seq::Database& db, FilterParams params)
    : params_(params) {
  if (params_.k < 1) throw std::invalid_argument("filter: k must be >= 1");
  if (params_.bits == 0 || params_.bits % 512 != 0)
    throw std::invalid_argument("filter: bits must be a multiple of 512");
  count_ = db.size();
  words_ = params_.bits / 32;
  residues_ = db.total_residues();
  blob_.resize(count_ * words_);
  blob_.zero();
  popcounts_.resize(count_);
  lengths_.resize(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const auto view = db.residues(i);
    lengths_[i] = static_cast<std::uint32_t>(view.size());
    std::uint64_t pc = 0;
    build_signature(view, blob_.data() + i * words_, &pc);
    popcounts_[i] = static_cast<std::uint32_t>(pc);
  }
  win_count_ = count_;
  obs::registry().counter("filter.index_builds").add(count_ == 0 ? 0 : 1);
}

SignatureIndex::SignatureIndex(FilterParams params, std::size_t count,
                               std::size_t residues,
                               std::span<const std::int32_t> blob,
                               std::span<const std::uint32_t> popcounts,
                               std::span<const std::uint32_t> lengths,
                               std::shared_ptr<const void> backing,
                               std::shared_ptr<const DeferredCheck> check)
    : params_(params), count_(count), residues_(residues) {
  if (params_.k < 1) throw std::invalid_argument("filter: k must be >= 1");
  if (params_.bits == 0 || params_.bits % 512 != 0)
    throw std::invalid_argument("filter: bits must be a multiple of 512");
  words_ = params_.bits / 32;
  if (blob.size() != count_ * words_ || popcounts.size() != count_ ||
      lengths.size() != count_) {
    throw std::invalid_argument(
        "filter: prebuilt signature arrays disagree with count/bits");
  }
  if (reinterpret_cast<std::uintptr_t>(blob.data()) % 64 != 0)
    throw std::invalid_argument(
        "filter: zero-copy signature blob must be 64-byte aligned");
  blob_p_ = blob.data();
  pop_p_ = popcounts.data();
  len_p_ = lengths.data();
  backing_ = std::move(backing);
  check_ = std::move(check);
  win_count_ = count_;
}

void DeferredCheck::run() const {
  std::call_once(once_, [this] {
    try {
      check_();
    } catch (...) {
      error_ = std::current_exception();
    }
  });
  if (error_) std::rethrow_exception(error_);
}

void SignatureIndex::verify() const {
  if (check_ != nullptr) check_->run();
}

SignatureIndex SignatureIndex::window(std::size_t first, std::size_t count,
                                      std::size_t residues) const {
  if (first + count > count_) {
    throw std::invalid_argument("filter: window exceeds the signature blob");
  }
  SignatureIndex w;
  w.params_ = params_;
  w.count_ = count_;
  w.words_ = words_;
  w.win_first_ = first;
  w.win_count_ = count;
  w.residues_ = residues;
  if (blob_p_ != nullptr) {
    // Zero-copy source: the view shares the mapped arrays, the backing
    // and the deferred check, so the whole index is verified once.
    w.blob_p_ = blob_p_;
    w.pop_p_ = pop_p_;
    w.len_p_ = len_p_;
    w.backing_ = backing_;
    w.check_ = check_;
  } else {
    // Owned source (AlignedBuffer is move-only): duplicate the arrays.
    w.blob_.resize(count_ * words_);
    std::copy(blob_data(), blob_data() + count_ * words_, w.blob_.data());
    w.popcounts_.assign(pop_data(), pop_data() + count_);
    w.lengths_.assign(len_data(), len_data() + count_);
  }
  return w;
}

void SignatureIndex::build_signature(std::span<const std::uint8_t> residues,
                                     std::int32_t* words,
                                     std::uint64_t* popcount) const {
  const int k = params_.k;
  if (residues.size() >= static_cast<std::size_t>(k)) {
    const std::size_t n = residues.size() - static_cast<std::size_t>(k) + 1;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t bit =
          kmer_hash(residues.data() + i, k) % static_cast<std::uint32_t>(params_.bits);
      words[bit / 32] |= static_cast<std::int32_t>(std::uint32_t{1} << (bit % 32));
    }
  }
  std::uint64_t pc = 0;
  for (std::size_t w = 0; w < words_; ++w)
    pc += static_cast<std::uint64_t>(
        std::popcount(static_cast<std::uint32_t>(words[w])));
  *popcount = pc;
}

QuerySignature SignatureIndex::make_query_signature(
    std::span<const std::uint8_t> query) const {
  QuerySignature q;
  q.length = query.size();
  q.words.resize(words_);
  q.words.zero();
  build_signature(query, q.words.data(), &q.popcount);
  return q;
}

FilterStats SignatureIndex::scan(const QuerySignature& q, simd::IsaKind isa,
                                 std::vector<std::uint8_t>& survivors,
                                 double threshold) const {
  verify();
  const double thr = threshold < 0.0 ? params_.threshold : threshold;
  survivors.assign(win_count_, std::uint8_t{1});
  FilterStats fs;
  fs.candidates = win_count_;
  if (win_count_ == 0) return fs;

  // Guard: a short or empty query signature cannot discriminate - pass
  // everything rather than risk recall.
  if (q.length < params_.min_query || q.popcount == 0) {
    fs.survivors = win_count_;
    fs.auto_pass = win_count_;
    return fs;
  }

  const simd::PopcountAndFn fn = simd::primitives(isa).popcount_and;
  const double bits = static_cast<double>(params_.bits);
  const double qb = static_cast<double>(q.popcount);

  // Pass 1: the SIMD AND-popcount sweep, plus the per-set-bit hit rate of
  // every screened subject. The MEDIAN rate is the robust background
  // estimate (header comment): unrelated subjects cluster around the
  // composition-driven rate, homologs are the upper outliers, and the
  // median ignores them as long as they are under half the database.
  // The sweep ALWAYS covers the full blob — a window() view still
  // measures the whole-database background, which is what keeps shard
  // verdicts bit-identical to a single-process scan (class comment).
  std::vector<std::uint64_t> and_bits(count_, 0);
  std::vector<double> rates;
  rates.reserve(count_);
  const std::size_t win_end = win_first_ + win_count_;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::uint32_t sb32 = pop_data()[i];
    if (len_data()[i] < params_.min_subject || sb32 == 0) {
      if (i >= win_first_ && i < win_end) {
        ++fs.auto_pass;
        ++fs.survivors;
      }
      continue;
    }
    and_bits[i] = fn(q.words.data(), blob_data() + i * words_, words_);
    rates.push_back(static_cast<double>(and_bits[i]) /
                    static_cast<double>(sb32));
  }
  double median_rate = -1.0;
  if (rates.size() >= params_.min_background) {
    const auto mid = rates.begin() + static_cast<long>(rates.size() / 2);
    std::nth_element(rates.begin(), mid, rates.end());
    median_rate = *mid;
  }

  // Pass 2: score each screened WINDOW subject against the empirical
  // background (uniform-hash expectation when the sample was too small to
  // trust).
  for (std::size_t i = win_first_; i < win_end; ++i) {
    const std::uint32_t sb32 = pop_data()[i];
    if (len_data()[i] < params_.min_subject || sb32 == 0) continue;
    const double sb = static_cast<double>(sb32);
    double e = median_rate >= 0.0 ? median_rate * sb : qb * sb / bits;
    e = std::min(e, 0.98 * std::min(qb, sb));
    const double denom = std::min(qb, sb) - e;
    if (denom < params_.min_informative) {
      // Saturated/uninformative signature (very long subjects): the score
      // would be all noise, so the subject rescans exactly.
      ++fs.auto_pass;
      ++fs.survivors;
      continue;
    }
    const double score = (static_cast<double>(and_bits[i]) - e) / denom;
    if (score >= thr) {
      ++fs.survivors;
    } else {
      survivors[i - win_first_] = 0;
      if (score >= thr - params_.near_margin) ++fs.near_miss_drops;
    }
  }
  return fs;
}

FilterStats SignatureIndex::scan(std::span<const std::uint8_t> query,
                                 simd::IsaKind isa,
                                 std::vector<std::uint8_t>& survivors,
                                 double threshold) const {
  return scan(make_query_signature(query), isa, survivors, threshold);
}

}  // namespace aalign::filter

namespace aalign::obs {

// Counter fan-out for one filter scan (declared in obs/instrument.h;
// defined here so obs never includes the filter layer).
void record_filter_stats(const filter::FilterStats& fs) {
  Registry& r = registry();
  r.counter("filter.candidates").add(fs.candidates);
  r.counter("filter.survivors").add(fs.survivors);
  r.counter("filter.auto_pass").add(fs.auto_pass);
  r.counter("filter.near_miss_drops").add(fs.near_miss_drops);
  r.histogram("filter.survivor_rate_pct")
      .record(static_cast<std::uint64_t>(fs.survivor_rate() * 100.0 + 0.5));
  r.histogram("filter.est_false_drop_ppm")
      .record(static_cast<std::uint64_t>(fs.est_false_drop() * 1e6 + 0.5));
}

}  // namespace aalign::obs
