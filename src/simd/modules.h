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
  // vacated lanes with `fill`. n == 1 is the hot path every kernel column
  // uses; larger n (used only by cold paths and tests) spills to memory.
  static reg rshift_x_fill(reg v, int n, T fill) {
    if (n == 1) return Ops::shift_insert(v, fill);
    alignas(64) T tmp[2 * kWidth];
    for (int l = 0; l < kWidth; ++l) tmp[l] = fill;
    Ops::to_array(v, tmp + kWidth);
    return Ops::from_array(tmp + kWidth - n);
  }

  static reg rshift_x_fill(const T* ad, int n, T fill) {
    return rshift_x_fill(Ops::load(ad), n, fill);
  }

  // True when va could still improve vb (va[l] > vb[l] somewhere): the
  // striped-iterate re-computation gate.
  static bool influence_test(reg va, reg vb) { return Ops::any_gt(va, vb); }

  // --- lazy-F carry scan (deconstructed lazy-F loop) ----------------------
  //
  // Snytsar ("De(con)struction of the lazy-F loop", arXiv:1909.00899): the
  // converged cross-lane F carry of a striped-iterate column is itself a
  // weighted max-scan, so the data-dependent retry loop can be replaced by
  // one bounded fixup sweep. Lane l of v_exit holds the F value EXITING
  // lane l's chunk after the first vertical pass; the carry ENTERING lane
  // l's chunk is then
  //   fin[0] = -inf;  fin[l] = max(exit[l-1], fin[l-1] + segs*gap_ext)
  // - an exclusive shifted max-scan with stride weight segs*gap_ext, the
  // same cross-lane recurrence as wgt_max_scan's phase 2, provided by each
  // backend as seg_scan_max. One corrective sweep seeded with fin finishes
  // the column: re-opening F from a fixup-raised H is dominated because
  // gap_first <= gap_ext (both negative), which is exactly the legacy
  // loop's convergence argument, so H converges bit-identically.
  static reg lazyf_carry_scan(reg v_exit, int segs, T gap_ext) {
    return Ops::seg_scan_max(
        v_exit, static_cast<long>(segs) * static_cast<long>(gap_ext),
        neg_inf<T>());
  }

  // Overload reporting a carry-depth estimate: the longest run of lanes
  // the winning carry propagated through. The legacy loop needs roughly
  // one extra column pass per lane of propagation, so depth feeds the
  // kernel.lazyf.saved_iters accounting (ties and saturated lanes may
  // overcount - it is an estimate, not an invariant).
  static reg lazyf_carry_scan(reg v_exit, int segs, T gap_ext,
                              int& depth_out) {
    const long seg_step =
        static_cast<long>(segs) * static_cast<long>(gap_ext);
    const reg fin = Ops::seg_scan_max(v_exit, seg_step, neg_inf<T>());
    alignas(64) T f[kWidth];
    Ops::to_array(fin, f);
    const T kNegInf = neg_inf<T>();
    int depth = 0;
    int run = 0;
    for (int l = 1; l < kWidth; ++l) {
      long ext = static_cast<long>(f[l - 1]) + seg_step;
      if constexpr (sizeof(T) < 4) {
        if (ext < std::numeric_limits<T>::min())
          ext = std::numeric_limits<T>::min();
      }
      const bool carried = f[l] > kNegInf && static_cast<long>(f[l]) == ext;
      run = carried ? run + 1 : 0;
      if (run > depth) depth = run;
    }
    depth_out = depth;
    return fin;
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
  //     term; O(kWidth) scalar work once per column.
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
    alignas(64) T a[kWidth];
    alignas(64) T s2[kWidth];
    Ops::to_array(r, a);
    long carry = std::numeric_limits<long>::min() / 4;  // S[0] = -inf
    long boundary = init;
    const long seg_step = static_cast<long>(segs) * gap_ext;
    for (int l = 0; l < kWidth; ++l) {
      s2[l] = clamp_to(carry > boundary ? carry : boundary);
      // Next lane: S[l+1] = max(A[l], S[l] + segs*ext)
      const long ext_carry = carry + seg_step;
      carry = a[l] > ext_carry ? static_cast<long>(a[l]) : ext_carry;
      if (carry < std::numeric_limits<long>::min() / 4)
        carry = std::numeric_limits<long>::min() / 4;
      boundary += seg_step;
    }
    const reg v_s2 = Ops::from_array(s2);

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
