#include "core/config.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace aalign {

const char* to_string(AlignKind k) {
  switch (k) {
    case AlignKind::Local: return "local";
    case AlignKind::Global: return "global";
    case AlignKind::SemiGlobal: return "semiglobal";
    case AlignKind::SemiGlobalQuery: return "semiglobal-query";
    case AlignKind::Overlap: return "overlap";
  }
  return "?";
}

const char* to_string(GapModel g) {
  return g == GapModel::Linear ? "linear" : "affine";
}

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::StripedIterate: return "striped-iterate";
    case Strategy::StripedScan: return "striped-scan";
    case Strategy::Hybrid: return "hybrid";
  }
  return "?";
}

const char* to_string(ScoreWidth w) {
  switch (w) {
    case ScoreWidth::W8: return "int8";
    case ScoreWidth::W16: return "int16";
    case ScoreWidth::W32: return "int32";
    case ScoreWidth::Auto: return "auto";
  }
  return "?";
}

const char* to_string(LazyF l) {
  return l == LazyF::Fixup ? "fixup" : "legacy";
}

bool farrar_safe(const score::ScoreMatrix& m, const Penalties& p) {
  // Removing one query-gap character and one subject-gap character from an
  // adjacent insertion/deletion pair saves at most extend+extend (when both
  // gaps are longer than one) and replaces them with one substitution; the
  // shortcut is exact when the substitution can never lose to that saving.
  return m.min_score() >= -(p.query.extend + p.subject.extend);
}

namespace {

// Worst-case |score| bound over every cell of the DP tables.
long score_magnitude_bound(const AlignConfig& cfg, const score::ScoreMatrix& m,
                           std::size_t query_len, std::size_t subject_len) {
  const long len = static_cast<long>(std::max(query_len, subject_len));
  const long max_sub = std::max(0, m.max_score());
  const long hi = len * max_sub;
  long lo = 0;
  if (cfg.kind != AlignKind::Local) {
    // Boundary gaps dominate the negative range.
    const long worst_ext =
        std::max(cfg.pen.query.extend, cfg.pen.subject.extend);
    const long worst_open = std::max(cfg.pen.query.open, cfg.pen.subject.open);
    lo = worst_open + (len + 1) * worst_ext +
         static_cast<long>(std::max(0, -m.min_score())) * len;
  }
  return std::max(hi, lo);
}

}  // namespace

ScoreWidth min_safe_width(const AlignConfig& cfg, const score::ScoreMatrix& m,
                          std::size_t query_len, std::size_t subject_len) {
  const long bound = score_magnitude_bound(cfg, m, query_len, subject_len);
  // Keep headroom of one matrix entry plus one gap step so saturating adds
  // cannot mask a real overflow right at the rail.
  const long headroom = m.max_score() + cfg.pen.query.open +
                        cfg.pen.query.extend + cfg.pen.subject.open +
                        cfg.pen.subject.extend;
  if (bound + headroom < std::numeric_limits<std::int8_t>::max())
    return ScoreWidth::W8;
  if (bound + headroom < std::numeric_limits<std::int16_t>::max())
    return ScoreWidth::W16;
  return ScoreWidth::W32;
}

}  // namespace aalign
