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

// The start width is chosen from the negative range alone; the positive
// rail is caught at run time (ColumnEngine::saturated flags a running max
// of H near the type's maximum), so one promotion rule covers every kind.
//
// Why the negative bound below suffices. Write G = (open_q + ext_q*m) +
// (open_s + ext_s*n) and F1 = max(open_q + ext_q, open_s + ext_s), the
// larger gap-first step.
//  - Local: H >= 0 everywhere, so no value that can win a max is near the
//    negative rail at any width.
//  - Non-local: every real cell H(i, j) is at least the score of the
//    all-gap path into it from H(0, 0) = 0, which is
//    -(open_q + ext_q*j) - (open_s + ext_s*i) >= -G. Kinds with free
//    leading overhangs only add paths, which can only raise H.
//  - E(i, j) >= H(i-1, j) - F1 and F(i, j) >= H(i, j-1) - F1, so every E
//    and F is >= -G - F1.
//  - Every other value a kernel forms (a diagonal sum, an extended E or F,
//    a lazy-F or scan carry, a boundary ramp) is only a candidate of a max
//    whose exact winner is one of the values above. A saturating add that
//    pins such a candidate at the rail raises it to a value still below
//    that winner, so the max comes out exactly as unclamped.
//  - Striped pad cells (logical rows m..m_pad-1) feed only later pad
//    cells, never a real cell or a result, so the bound uses m, not m_pad.
// Hence, when G + F1 stays kRailMargin above a width's negative rail, that
// width computes every real H, E and F exactly unless its positive side
// saturated. ColumnEngine::saturated() flags the negative rail by the same
// test, so a width admitted here never reports a negative saturation.
// Int32 lanes keep their rail at min/2 and are taken to hold any problem.
ScoreWidth min_safe_width(const AlignConfig& cfg, std::size_t query_len,
                          std::size_t subject_len) {
  if (cfg.kind == AlignKind::Local) return ScoreWidth::W8;
  const Penalties& p = cfg.pen;
  const long first = std::max(p.query.open + p.query.extend,
                              p.subject.open + p.subject.extend);
  const long low = p.query.open +
                   static_cast<long>(query_len) * p.query.extend +
                   p.subject.open +
                   static_cast<long>(subject_len) * p.subject.extend + first;
  const auto fits = [low](long rail) { return low < -rail - kRailMargin; };
  if (fits(std::numeric_limits<std::int8_t>::min())) return ScoreWidth::W8;
  if (fits(std::numeric_limits<std::int16_t>::min())) return ScoreWidth::W16;
  return ScoreWidth::W32;
}

}  // namespace aalign
