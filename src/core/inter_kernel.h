// Inter-sequence vectorization kernel: W database subjects aligned
// simultaneously, one per vector lane (same idea as Rognes' SWIPE).
//
// Because each lane is an independent alignment, the DP recurrences are
// plain element-wise vector ops - no striping, no lazy-F corrections, no
// scan. The substitution fetch is a per-column SCORE PROFILE: before the
// inner loop walks the query, the W-lane substitution row of every query
// residue is materialized once (prof[a][l] = matrix(subject_l[t], a), with
// finished lanes reading the batch-padding score - strongly negative, so
// lanes that ended early decay to zero and stop contributing to the
// running maximum). The inner loop then does one sequential aligned load
// per cell instead of a per-lane gather, which is what lets the kernel run
// on 8/16-bit lanes at all (x86 has no narrow gathers) and removes the
// gather latency from the 32-bit path too.
//
// The kernel is generic over the lane type. Narrow types (int8/int16) use
// saturating adds; a lane whose running maximum ends pinned at the
// positive rail may have overflowed and is reported in the returned
// bitmask so the caller can re-run it at the next wider precision. Local
// alignment makes the narrow tiers exact below the rail: H >= 0
// everywhere, and E/F values saturated at the negative rail are still
// smaller than every candidate that can win a max, so clamping them loses
// nothing.
//
// Include only from backend TUs compiled with the right ISA flags.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/column_engine.h"
#include "core/inter_engine.h"

namespace aalign::core {

// Out of line and cold: the lane fill below is inlined into every tier.
[[noreturn, gnu::cold, gnu::noinline]] inline void throw_bad_subject_symbol(
    int c) {
  throw std::invalid_argument("inter kernel: subject symbol " +
                              std::to_string(c) + " outside the alphabet");
}

// Fills one column's score profile, prof[a * W + l] = tables.row(a)[idx[l]]
// for every query residue a: one lookup per residue (idx put in the
// backend's index code first) where the backend has the primitive and the
// pad index fits its 32-entry range, else the same lookup lane by lane.
// Every idx[l] must be <= alpha (the pad symbol).
template <class Ops, class T = typename Ops::value_type>
void fill_column_profile(const score::ProfileTables<T>& tables, const T* idx,
                         T* prof) {
  using reg = typename Ops::reg;
  constexpr int W = Ops::kWidth;
  if constexpr (simd::HasLookup<Ops>) {
    if (tables.alpha < score::kLookupEntries) {
      reg v_idx = Ops::load(idx);
      constexpr score::IndexCode code = index_code<Ops>();
      if constexpr (code != score::IndexCode{}) {
        alignas(64) T coded[W];
        for (int l = 0; l < W; ++l) {
          coded[l] = static_cast<T>(idx[l] * code.mul + code.add);
        }
        v_idx = Ops::load(coded);
      }
      for (int a = 0; a < tables.alpha; ++a) {
        Ops::store(prof + a * W,
                   Ops::lookup(Ops::load_table(tables.row(a)), v_idx));
      }
      return;
    }
  }
  using U = std::make_unsigned_t<T>;  // int8 lanes hold symbols up to 255
  for (int a = 0; a < tables.alpha; ++a) {
    const T* row = tables.row(a);
    for (int l = 0; l < W; ++l) prof[a * W + l] = row[static_cast<U>(idx[l])];
  }
}

template <class Ops>
std::uint64_t inter_sequence_local(
    const InterBatchInput& in,
    const score::ProfileTables<typename Ops::value_type>& tables,
    const Steps<typename Ops::value_type>& st,
    Workspace<typename Ops::value_type>& ws, long* out_scores) {
  using T = typename Ops::value_type;
  using reg = typename Ops::reg;
  constexpr int W = Ops::kWidth;
  const int m = static_cast<int>(in.query.size());
  const int alpha = tables.alpha;
  const T kNegInf = simd::neg_inf<T>();

  ws.h_prev.resize(m * W);  // H(prev column) per (j, lane)
  ws.e.resize(m * W);       // E carry per (j, lane)
  ws.scan.resize(alpha * W);  // per-column score profile, one row per residue
  ws.h_cur.resize(W);       // this column's subject character per lane
  T* h = ws.h_prev.data();
  T* e = ws.e.data();
  T* prof = ws.scan.data();
  T* idx = ws.h_cur.data();
  for (int j = 0; j < m * W; ++j) {
    h[j] = 0;
    e[j] = kNegInf;
  }

  const reg v_zero = Ops::set1(T{0});
  const reg v_ext_l = Ops::set1(st.ext_left);
  const reg v_first_l = Ops::set1(st.first_left);
  const reg v_ext_u = Ops::set1(st.ext_up);
  const reg v_first_u = Ops::set1(st.first_up);
  reg v_max = v_zero;

  for (int t = 0; t < in.max_len; ++t) {
    // Score profile of this column: each lane's subject character (the
    // padding index alpha once the lane's subject has ended) selects one
    // entry of every residue's table row. Row stride W*sizeof(T) is
    // exactly the register width, so every row is load-aligned. A
    // character outside the alphabet would select past the tables.
    for (int l = 0; l < W; ++l) {
      int c = alpha;
      if (t < in.lengths[l]) {
        c = in.subjects[l][t];
        if (c >= alpha) throw_bad_subject_symbol(c);
      }
      idx[l] = static_cast<T>(c);
    }
    fill_column_profile<Ops>(tables, idx, prof);

    reg v_f = Ops::set1(kNegInf);
    reg v_hdiag = v_zero;  // local boundary H(., 0) = 0
    reg v_hleft = v_zero;
    for (int j = 0; j < m; ++j) {
      const reg v_sub =
          Ops::load(prof + static_cast<std::size_t>(in.query[j]) * W);

      const reg v_hup = Ops::load(h + j * W);
      const reg v_e = Ops::max(Ops::adds(Ops::load(e + j * W), v_ext_l),
                               Ops::adds(v_hup, v_first_l));
      v_f = Ops::max(Ops::adds(v_f, v_ext_u), Ops::adds(v_hleft, v_first_u));

      reg v_cell = Ops::adds(v_hdiag, v_sub);
      v_cell = Ops::max(v_cell, v_e);
      v_cell = Ops::max(v_cell, v_f);
      v_cell = Ops::max(v_cell, v_zero);
      v_max = Ops::max(v_max, v_cell);

      Ops::store(e + j * W, v_e);
      Ops::store(h + j * W, v_cell);
      v_hdiag = v_hup;
      v_hleft = v_cell;
    }
  }

  alignas(64) T scores[W];
  Ops::to_array(v_max, scores);
  for (int l = 0; l < W; ++l) out_scores[l] = scores[l];

  if constexpr (sizeof(T) >= 4) {
    return 0;  // exact tier: range-checked, never saturates
  } else {
    return Ops::eq_mask(v_max, Ops::set1(std::numeric_limits<T>::max()));
  }
}

// One engine per backend bundling the tiers its VecOps header defines
// (the IMCI-profile AVX-512 backend is int32-only, matching the paper's
// Sec. II-A restriction).
template <class Tag>
class InterEngineImpl final : public InterEngine {
 public:
  int lanes(InterPrecision p) const override {
    switch (p) {
      case InterPrecision::I8: return lanes_of<std::int8_t>();
      case InterPrecision::I16: return lanes_of<std::int16_t>();
      case InterPrecision::I32: return lanes_of<std::int32_t>();
    }
    return 0;
  }

  std::uint64_t run(InterPrecision p, const InterBatchInput& in,
                    const Penalties& pen, WorkspaceSet& ws,
                    long* out_scores) const override {
    AlignConfig cfg;
    cfg.kind = AlignKind::Local;
    cfg.pen = pen;
    switch (p) {
      case InterPrecision::I8:
        return run_tier(in, in.tables->i8, cfg, ws.w8, out_scores);
      case InterPrecision::I16:
        return run_tier(in, in.tables->i16, cfg, ws.w16, out_scores);
      case InterPrecision::I32:
        return run_tier(in, in.tables->i32, cfg, ws.w32, out_scores);
    }
    throw std::logic_error("InterEngine: unknown precision tier");
  }

 private:
  template <class T>
  static constexpr int lanes_of() {
    if constexpr (simd::HasLanes<T, Tag>) {
      return simd::VecOps<T, Tag>::kWidth;
    } else {
      return 0;
    }
  }

  template <class T>
  static std::uint64_t run_tier(const InterBatchInput& in,
                                const score::ProfileTables<T>& tables,
                                const AlignConfig& cfg, Workspace<T>& ws,
                                long* out_scores) {
    if constexpr (simd::HasLanes<T, Tag>) {
      return inter_sequence_local<simd::VecOps<T, Tag>>(
          in, tables, make_steps<T>(cfg), ws, out_scores);
    } else {
      throw std::logic_error(
          "InterEngine: precision tier unavailable on this backend");
    }
  }
};

}  // namespace aalign::core
