#include "core/query_context.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/sequential.h"
#include "obs/metrics.h"
#include "simd/modules.h"

namespace aalign::core {

ScoreWidth choose_start_width(const AlignConfig& cfg, std::size_t query_len,
                              std::size_t subject_len,
                              const std::vector<ScoreWidth>& supported) {
  if (supported.empty()) {
    throw std::logic_error("choose_start_width: no supported widths");
  }
  const ScoreWidth need = min_safe_width(cfg, query_len, subject_len);
  for (ScoreWidth w : supported) {
    if (w >= need) return w;
  }
  // Nothing wide enough: use the widest we have; the kernel's saturation
  // flag will surface the limitation.
  return supported.back();
}

namespace {

// A copy of `query`, made once its length is known to fit a profile: a
// longer one would wrap the profile's int geometry.
std::vector<std::uint8_t> profile_sized_copy(
    std::span<const std::uint8_t> query) {
  if (query.size() > score::kMaxQueryLength) {
    throw std::invalid_argument(
        "QueryContext: query of " + std::to_string(query.size()) +
        " residues exceeds the " + std::to_string(score::kMaxQueryLength) +
        "-residue profile limit");
  }
  return {query.begin(), query.end()};
}

}  // namespace

QueryContext::QueryContext(const score::ScoreMatrix& matrix,
                           const AlignConfig& cfg, const QueryOptions& opt,
                           std::span<const std::uint8_t> query)
    : matrix_(matrix),
      cfg_(cfg),
      opt_(opt),
      query_(profile_sized_copy(query)),
      query_len_(query.size()) {
  cfg_.validate();
  if (query.empty()) throw std::invalid_argument("QueryContext: empty query");
  if (!simd::isa_available(opt_.isa)) {
    throw std::invalid_argument(std::string("QueryContext: ISA '") +
                                simd::isa_name(opt_.isa) +
                                "' is not available on this machine");
  }

  Tiers& t = *tiers_;
  t.t8.engine = get_engine<std::int8_t>(opt_.isa);
  t.t16.engine = get_engine<std::int16_t>(opt_.isa);
  t.t32.engine = get_engine<std::int32_t>(opt_.isa);
  t.t8.lut_rows = opt_.lut.i8;
  t.t16.lut_rows = opt_.lut.i16;
  t.t32.lut_rows = opt_.lut.i32;

  auto want = [&](ScoreWidth w) {
    return opt_.width == ScoreWidth::Auto || opt_.width == w;
  };
  widths_.reserve(3);  // one allocation for every width
  if (t.t8.engine != nullptr && want(ScoreWidth::W8)) {
    widths_.push_back(ScoreWidth::W8);
  }
  if (t.t16.engine != nullptr && want(ScoreWidth::W16)) {
    widths_.push_back(ScoreWidth::W16);
  }
  if (t.t32.engine != nullptr && want(ScoreWidth::W32)) {
    widths_.push_back(ScoreWidth::W32);
  }
  // Reachable widths only: an alignment never starts below
  // min_safe_width(query, subject), which only grows with the subject, so
  // choose_start_width never picks a width below the query's own floor and
  // its profile would never be read. The widest width always stays.
  if (opt_.width == ScoreWidth::Auto) {
    const ScoreWidth floor = min_safe_width(cfg_, query_len_, 0);
    while (widths_.size() > 1 && widths_.front() < floor) {
      widths_.erase(widths_.begin());
    }
  }

  if (widths_.empty()) {
    throw std::invalid_argument(
        "QueryContext: no supported score width for this ISA/width request");
  }
  // The first tier is built here, so a bad query byte throws now; wider
  // tiers wait for the first align() that promotes to them.
  switch (widths_.front()) {
    case ScoreWidth::W8:
      profile<std::int8_t>(false);
      break;
    case ScoreWidth::W16:
      profile<std::int16_t>(false);
      break;
    default:
      profile<std::int32_t>(false);
      break;
  }
}

template <class T>
QueryContext::Tier<T>& QueryContext::tier() const {
  if constexpr (sizeof(T) == 1) {
    return tiers_->t8;
  } else if constexpr (sizeof(T) == 2) {
    return tiers_->t16;
  } else {
    return tiers_->t32;
  }
}

template <class T>
const score::StripedProfile<T>& QueryContext::profile(bool lazy) const {
  Tier<T>& t = tier<T>();
  std::call_once(t.built, [&] { build(t, lazy); });
  return t.profile;
}

// A tier builds from the attached LUT rows when they cover the alphabet,
// else from the matrix's own letter tables, read in place; the outputs are
// bit-identical (tests/test_gateway.cpp pins this differentially).
template <class T>
void QueryContext::build(Tier<T>& t, bool lazy) const {
  static obs::Timer& timer = obs::registry().timer("phase.profile_build");
  obs::ScopedTimer build_timer(timer);
  const int alpha = matrix_.size();
  const T pad = cfg_.kind == AlignKind::Local ? simd::neg_inf<T>() : T{0};
  const bool use_lut =
      !opt_.lut.empty() &&
      opt_.lut.stride >= static_cast<std::size_t>(alpha) &&
      t.lut_rows.size() >= static_cast<std::size_t>(alpha) * opt_.lut.stride;
  if (use_lut) {
    t.lut_tables =
        score::profile_tables<T>(t.lut_rows, opt_.lut.stride, alpha, pad);
  }
  t.engine->build_profile(t.profile, query_,
                          use_lut ? t.lut_tables : matrix_.letter_tables(pad));
  if (use_lut && !tiers_->lut_counted.exchange(true)) {
    obs::registry().counter("cache.profile.lut_attach").add();
  }
  if (lazy) obs::registry().counter("profile.lazy_builds").add();
}

template <class T>
KernelResult QueryContext::run_width(std::span<const std::uint8_t> subject,
                                     Workspace<T>& ws,
                                     const CancelToken* cancel) const {
  return tier<T>().engine->run(opt_.strategy, cfg_, profile<T>(true), subject,
                               ws, opt_.hybrid, cancel);
}

AdaptiveResult QueryContext::align(std::span<const std::uint8_t> subject,
                                   WorkspaceSet& ws,
                                   const CancelToken* cancel) const {
  // The kernels index a letter table or row with every subject byte. A
  // plain max reduction, so the check vectorizes.
  std::uint8_t top = 0;
  for (const std::uint8_t c : subject) top = std::max(top, c);
  if (!subject.empty() && top >= matrix_.size()) {
    throw std::invalid_argument("QueryContext: subject symbol " +
                                std::to_string(top) +
                                " outside the alphabet");
  }
  if (subject.empty()) {
    // Boundary case the striped kernels never see: the exact score is the
    // oracle's degenerate boundary value (0 for local, full-length query
    // gap for global, ...). Deterministic and width-independent.
    AdaptiveResult out;
    out.kernel.score = align_sequential(matrix_, cfg_, query_, subject);
    out.width = widths_.back();
    return out;
  }
  const ScoreWidth start =
      choose_start_width(cfg_, query_len_, subject.size(), widths_);
  AdaptiveResult out;
  for (std::size_t wi = 0; wi < widths_.size(); ++wi) {
    if (widths_[wi] < start && wi + 1 < widths_.size()) continue;
    KernelResult kr;
    switch (widths_[wi]) {
      case ScoreWidth::W8:
        kr = run_width<std::int8_t>(subject, ws.w8, cancel);
        break;
      case ScoreWidth::W16:
        kr = run_width<std::int16_t>(subject, ws.w16, cancel);
        break;
      default:
        kr = run_width<std::int32_t>(subject, ws.w32, cancel);
        break;
    }
    out.kernel = kr;
    out.width = widths_[wi];
    if (kr.cancelled) {
      out.cancelled = true;
      return out;
    }
    if (!kr.saturated || wi + 1 == widths_.size()) return out;
    ++out.promotions;
  }
  return out;
}

}  // namespace aalign::core
