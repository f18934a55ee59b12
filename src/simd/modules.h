// The AAlign vector modules (paper Table I), generic over a VecOps backend.
//
// Kernel code (core/striped_*.h) is written purely against this layer plus
// the VecOps primitives, so "porting to another ISA" is adding one vec_*.h
// backend - the paper's portability claim, realized with templates instead
// of re-linking.
//
// Conventions used throughout:
//  - Scores are additive; gap parameters are passed as NEGATIVE step values
//    (gap_first = -(theta+beta), the cost of a length-1 gap; gap_ext = -beta,
//    each additional gap character). A gap of length L costs
//    gap_first + (L-1)*gap_ext. Linear gap systems simply have
//    gap_first == gap_ext (theta == 0).
//  - Striped layout (paper Fig. 4): a padded column of m_pad = segs*kWidth
//    cells is stored as `segs` vectors; logical cell e lives in vector
//    (e % segs), lane (e / segs). Buffers are indexed [j*kWidth + l].
//  - neg_inf<T> is the "small enough" sentinel: the saturation rail for
//    8/16-bit lanes (saturating adds keep it pinned), min/2 for 32-bit
//    lanes (headroom instead of saturation, range-checked at config time).
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstdint>
#include <limits>

#include "simd/vec_scalar.h"

namespace aalign::simd {

template <class T>
constexpr T neg_inf() {
  if constexpr (sizeof(T) >= 4) {
    return std::numeric_limits<T>::min() / 2;
  } else {
    return std::numeric_limits<T>::min();
  }
}

// Maps a logical cell index to its offset in a striped buffer.
constexpr int striped_offset(int logical, int segs, int width) {
  (void)width;
  return (logical % segs) * width + (logical / segs);
}

// Backends with an in-register table lookup (optional): load_table(row)
// holds one table row (64-byte aligned, >= 64 readable entries) in
// registers, and lookup(table, idx) selects row[c] in every lane whose
// index is c * kIndexMul + kIndexAdd, for c in 0..31 (most backends read
// c itself). kLookupOps counts lookup's instructions.
template <class Ops>
concept HasLookup = requires(const typename Ops::value_type* row,
                             typename Ops::reg idx) {
  { Ops::lookup(Ops::load_table(row), idx) } -> std::same_as<typename Ops::reg>;
  { Ops::kLookupOps } -> std::convertible_to<int>;
  { Ops::kIndexMul } -> std::convertible_to<int>;
  { Ops::kIndexAdd } -> std::convertible_to<int>;
};

// A one-instruction lookup: cheap enough to stand in for a load, so the
// striped kernels score each vector by it instead of reading a profile row.
template <class Ops>
concept HasOneOpLookup = HasLookup<Ops> && (Ops::kLookupOps == 1);

template <class Ops>
struct Modules {
  using T = typename Ops::value_type;
  using reg = typename Ops::reg;
  static constexpr int kWidth = Ops::kWidth;

  // --- Basic vector-operation API -----------------------------------------

  static reg load_vector(const T* ad) { return Ops::load(ad); }
  static void store_vector(T* ad, reg v) { Ops::store(ad, v); }
  static reg broadcast(T x) { return Ops::set1(x); }
  static reg add_vector(reg a, reg b) { return Ops::adds(a, b); }
  static reg add_array(const T* ad, reg v) { return Ops::adds(Ops::load(ad), v); }

  template <class... Regs>
  static reg max_vector(reg v, Regs... rest) {
    if constexpr (sizeof...(rest) == 0) {
      return v;
    } else {
      return Ops::max(v, max_vector(rest...));
    }
  }

  // --- Application-specific vector-operation API --------------------------

  // Lower-bound vector for striped-iterate (paper Fig. 6): lane l gets
  // init + (first + l*segs*ext) - i.e. the score of reaching the first cell
  // of lane l's chunk from the column boundary purely through a gap. The
  // lane-ramp (first + l*segs*ext) is init-independent; kernels precompute
  // it once via set_vector_ramp and add the broadcast init per column.
  static reg set_vector_ramp(int segs, T gap_first, T gap_ext) {
    alignas(64) T tmp[kWidth];
    for (int l = 0; l < kWidth; ++l) {
      const long v = static_cast<long>(gap_first) +
                     static_cast<long>(l) * segs * static_cast<long>(gap_ext);
      tmp[l] = clamp_to(v);
    }
    return Ops::from_array(tmp);
  }

  // Exact form: one clamp per lane. (Kernels instead add a broadcast init
  // to a precomputed ramp; if the ramp itself clamps, the score range is
  // already beyond this width and the kernel reports saturation.)
  static reg set_vector(int segs, T init, T gap_first, T gap_ext) {
    alignas(64) T tmp[kWidth];
    for (int l = 0; l < kWidth; ++l) {
      const long v = static_cast<long>(init) + gap_first +
                     static_cast<long>(l) * segs * static_cast<long>(gap_ext);
      tmp[l] = clamp_to(v);
    }
    return Ops::from_array(tmp);
  }

  // Right-shift by n lanes (elements move to higher lane indices), filling
  // vacated lanes with `fill`. n == 1, the hot path every kernel column
  // uses, is one shift_lanes<1>; any other n composes the power-of-two
  // shifts of its set bits, in registers.
  static reg rshift_x_fill(reg v, int n, T fill) {
    const reg f = Ops::set1(fill);
    if (n >= kWidth) return f;
    return shift_by_bits(v, n, f);
  }

  static reg rshift_x_fill(const T* ad, int n, T fill) {
    return rshift_x_fill(Ops::load(ad), n, fill);
  }

  // True when va could still improve vb (va[l] > vb[l] somewhere): the
  // striped-iterate re-computation gate.
  static bool influence_test(reg va, reg vb) { return Ops::any_gt(va, vb); }

  // --- seg_scan_max: the one cross-lane scan ------------------------------
  //
  // Exclusive shifted max-scan across lanes:
  //   out[0] = fill;  out[l] = max(v[l-1], out[l-1] (+) step)
  // where (+) is Ops::adds - saturating at int8/int16, plain at int32.
  // `step` is passed wide because a stride weight segs*ext can exceed the
  // narrow lane range. It must be <= 0: every caller passes a multiple of
  // a gap extension, which is negative (AlignConfig::validate and aalignc
  // both require extend > 0).
  //
  // log2(kWidth) Kogge-Stone rounds over the (max, +) semiring: after the
  // round of distance d, lane l holds the best candidate from up to 2d
  // lanes back. Each round is
  //   s = max(s, shift_lanes<d>(s (+) d*step, s)),
  // and the vacated low lanes keep their own value, so any fill is exact.
  // At int32 the plain adds are associative, so the tree equals the serial
  // recurrence. At int8/int16 it does too: for y >= MIN and a, b <= 0,
  // sat(sat(y+a)+b) = max(MIN, y+a+b), so a round weight is applied as two
  // saturating adds of in-range halves; a weight below -2^bits only adds
  // candidates that saturate to MIN anyway, so it is clamped there.
  static reg seg_scan_max(reg v, long step, T fill) {
    assert(step <= 0);
    return scan_rounds<1>(Ops::template shift_lanes<1>(v, Ops::set1(fill)),
                          step);
  }

  // --- lazy-F carry scan (deconstructed lazy-F loop) ----------------------
  //
  // Snytsar ("De(con)struction of the lazy-F loop", arXiv:1909.00899): the
  // converged cross-lane F carry of a striped-iterate column is itself a
  // weighted max-scan, so the data-dependent retry loop can be replaced by
  // one bounded fixup sweep. Lane l of v_exit holds the F value EXITING
  // lane l's chunk after the first vertical pass; the carry ENTERING lane
  // l's chunk is then
  //   fin[0] = -inf;  fin[l] = max(exit[l-1], fin[l-1] + segs*gap_ext)
  // - seg_scan_max with stride weight segs*gap_ext, the same cross-lane
  // recurrence as wgt_max_scan's phase 2. One corrective sweep seeded with
  // fin finishes the column: re-opening F from a fixup-raised H is
  // dominated because gap_first <= gap_ext (both negative), which is
  // exactly the legacy loop's convergence argument, so H converges
  // bit-identically.
  static reg lazyf_carry_scan(reg v_exit, int segs, T gap_ext) {
    return seg_scan_max(
        v_exit, static_cast<long>(segs) * static_cast<long>(gap_ext),
        neg_inf<T>());
  }

  // Horizontal max; cold path (once per alignment).
  static T hmax(reg v) {
    alignas(64) T tmp[kWidth];
    Ops::to_array(v, tmp);
    T best = tmp[0];
    for (int l = 1; l < kWidth; ++l)
      if (tmp[l] > best) best = tmp[l];
    return best;
  }

  // --- wgt_max_scan (paper Fig. 8) -----------------------------------------
  //
  // Weighted max-scan over a striped buffer. For logical cells e in [0,m_pad):
  //   out[e] = max( init + gap_first + e*gap_ext,
  //                 max_{0 <= l < e} ( in[l] + gap_first + (e-l-1)*gap_ext ) )
  // which is exactly the "up" (vertical) contribution
  // U(i,j) = max_{p<j} ( H(i,p) + theta~ + (j-p)*beta~ ) with H(i,0) = init.
  //
  // Three phases, as in the paper:
  //  1. inter-vector: per-lane running scan R_j = max(in_j, R_{j-1}+ext)
  //     (k vector ops); R_j is parked in `out`.
  //  2. intra-vector: exclusive weighted scan across lanes of the lane
  //     aggregates with stride weight segs*ext, folding in the boundary
  //     term; one seg_scan_max, log2(kWidth) rounds in registers.
  //  3. inter-vector: combine the same-lane prefix (R_{j-1}+gap_first) with
  //     the cross-lane/boundary carry (S2 + gap_first + j*ext).
  static void wgt_max_scan(const T* in, T* out, int segs, T init, T gap_first,
                           T gap_ext) {
    const reg v_ext = Ops::set1(gap_ext);
    const T kNegInf = neg_inf<T>();

    // Phase 1.
    reg r = Ops::set1(kNegInf);
    for (int j = 0; j < segs; ++j) {
      r = Ops::max(Ops::adds(r, v_ext), Ops::load(in + j * kWidth));
      Ops::store(out + j * kWidth, r);
    }

    // Phase 2: lane aggregates A[l] = R_{segs-1}[l]; compute
    //   S2[l] = max( max_{l'<l} A[l'] + (l-l'-1)*segs*ext,
    //                init + l*segs*ext )           (boundary folded in)
    // i.e. seg_scan_max seeded with init. At int32 the max with neg_inf
    // is the clamp that saturation gives the narrow widths.
    reg v_s2 = seg_scan_max(r, static_cast<long>(segs) * gap_ext, init);
    if constexpr (sizeof(T) >= 4) v_s2 = Ops::max(v_s2, Ops::set1(kNegInf));

    // Phase 3.
    const reg v_first = Ops::set1(gap_first);
    reg cross = Ops::adds(v_s2, v_first);     // S2 + gap_first + j*ext, j=0
    reg prev = Ops::set1(kNegInf);            // R_{-1}
    for (int j = 0; j < segs; ++j) {
      const reg rj = Ops::load(out + j * kWidth);
      const reg same = Ops::adds(prev, v_first);
      Ops::store(out + j * kWidth, Ops::max(same, cross));
      prev = rj;
      cross = Ops::adds(cross, v_ext);
    }
  }

 private:
  // shift_lanes<D> for each set bit D of n (n < kWidth).
  template <int D = 1>
  static reg shift_by_bits(reg v, int n, reg fill) {
    if constexpr (D < kWidth) {
      if (n & D) v = Ops::template shift_lanes<D>(v, fill);
      return shift_by_bits<2 * D>(v, n, fill);
    } else {
      return v;
    }
  }

  // seg_scan_max's rounds from distance D up (see there).
  template <int D>
  static reg scan_rounds(reg s, long step) {
    if constexpr (D < kWidth) {
      reg t;
      if constexpr (sizeof(T) < 4) {
        constexpr long kFloor = 2L * std::numeric_limits<T>::min();  // -2^bits
        const long w = std::max(D * step, kFloor);
        const long half = w / 2;
        t = Ops::adds(Ops::adds(s, Ops::set1(static_cast<T>(half))),
                      Ops::set1(static_cast<T>(w - half)));
      } else {
        t = Ops::adds(s, Ops::set1(static_cast<T>(D * step)));
      }
      s = Ops::max(s, Ops::template shift_lanes<D>(t, s));
      return scan_rounds<2 * D>(s, step);
    } else {
      return s;
    }
  }

  static T clamp_to(long v) {
    if (v > std::numeric_limits<T>::max()) return std::numeric_limits<T>::max();
    if (v < static_cast<long>(neg_inf<T>())) return neg_inf<T>();
    return static_cast<T>(v);
  }
};

// Scalar oracle for wgt_max_scan, in LOGICAL (unstriped) order; the tests
// stripe/unstripe around it. Uses wide arithmetic, then clamps to T's range
// the same way the kernels' saturating adds would.
template <class T>
void wgt_max_scan_reference(const T* in, T* out, int m, T init, T gap_first,
                            T gap_ext) {
  for (int e = 0; e < m; ++e) {
    long best = static_cast<long>(init) + gap_first +
                static_cast<long>(e) * gap_ext;
    for (int l = 0; l < e; ++l) {
      const long cand = static_cast<long>(in[l]) + gap_first +
                        static_cast<long>(e - l - 1) * gap_ext;
      if (cand > best) best = cand;
    }
    if (best > std::numeric_limits<T>::max())
      best = std::numeric_limits<T>::max();
    if (best < static_cast<long>(neg_inf<T>())) best = neg_inf<T>();
    out[e] = static_cast<T>(best);
  }
}

}  // namespace aalign::simd
