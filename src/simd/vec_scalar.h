// Scalar implementation of the vector-primitive contract.
//
// This backend is both the portable fallback and the semantic reference the
// hardware backends are tested against. It emulates an 8-lane register with
// a plain array; saturation behaviour matches the x86 `adds/subs`
// instructions exactly (see util/saturate.h).
//
// The VecOps<T, Isa> contract implemented by every backend:
//   value_type, reg, kWidth
//   load/store      : aligned (64 B) register moves
//   set1            : broadcast
//   adds/subs       : saturating for 8/16-bit lanes, wrapping for 32-bit
//   max/min         : per-lane signed
//   any_gt(a, b)    : true if a[l] > b[l] in any lane (influence_test core)
//   shift_lanes<N>(x, lo) : the one cross-lane primitive, for power-of-two
//                     N < kWidth: lane l >= N takes x[l-N], lane l < N
//                     keeps lo[l] (the paper's rshift_x_fill held in
//                     registers; "right" is in element-index order, i.e.
//                     a byte-wise left shift of the register). Every
//                     cross-lane module (simd/modules.h) is built on it.
//   popcount_and(a, b) : population count of the bitwise AND of the two
//                     registers, taken over the raw register bits (lane
//                     type is irrelevant). The signature-intersection core
//                     of the two-stage search pre-filter (src/filter/):
//                     one call scores one register-width slice of a
//                     k-mer bitset against the query signature.
//   to_array/from_array : unaligned spills used by cold generic paths
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "simd/isa.h"
#include "util/saturate.h"

namespace aalign::simd {

template <class T, class Isa>
struct VecOps;  // primary template intentionally undefined

// True when backend Isa has T lanes, i.e. its vec_*.h header defines
// VecOps<T, Isa>. Those specializations are the one statement of a
// backend's widths (vec_avx512.h, the IMCI profile, defines int32 only).
template <class T, class Isa>
concept HasLanes = requires { VecOps<T, Isa>::kWidth; };

template <class T>
struct ScalarReg {
  T lane[8];
};

template <class T>
struct VecOps<T, ScalarTag> {
  using value_type = T;
  using reg = ScalarReg<T>;
  static constexpr int kWidth = 8;

  static reg load(const T* p) {
    reg r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static void store(T* p, reg v) { std::memcpy(p, v.lane, sizeof(v.lane)); }

  static reg set1(T x) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = x;
    return r;
  }

  static reg adds(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = util::sat_add(a.lane[l], b.lane[l]);
    return r;
  }
  static reg subs(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = util::sat_sub(a.lane[l], b.lane[l]);
    return r;
  }

  static reg max(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = a.lane[l] > b.lane[l] ? a.lane[l] : b.lane[l];
    return r;
  }
  static reg min(reg a, reg b) {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = a.lane[l] < b.lane[l] ? a.lane[l] : b.lane[l];
    return r;
  }

  static bool any_gt(reg a, reg b) {
    for (int l = 0; l < kWidth; ++l)
      if (a.lane[l] > b.lane[l]) return true;
    return false;
  }

  // Per-lane equality bitmask (bit l set when a[l] == b[l]). The
  // saturation test of the multi-precision inter-sequence engine: lanes
  // whose running maximum is pinned at the positive rail overflowed and
  // must be re-run at wider precision.
  static std::uint64_t eq_mask(reg a, reg b) {
    std::uint64_t m = 0;
    for (int l = 0; l < kWidth; ++l)
      if (a.lane[l] == b.lane[l]) m |= std::uint64_t{1} << l;
    return m;
  }

  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    static_assert(N > 0 && N < kWidth && (N & (N - 1)) == 0);
    reg r;
    for (int l = 0; l < kWidth; ++l)
      r.lane[l] = l < N ? lo.lane[l] : x.lane[l - N];
    return r;
  }

  // Popcount of the register-wide AND; the semantic reference for the
  // hardware backends (raw bits, lane type irrelevant).
  static std::uint64_t popcount_and(reg a, reg b) {
    using U = std::make_unsigned_t<T>;
    std::uint64_t n = 0;
    for (int l = 0; l < kWidth; ++l)
      n += static_cast<std::uint64_t>(std::popcount(
          static_cast<U>(static_cast<U>(a.lane[l]) & static_cast<U>(b.lane[l]))));
    return n;
  }

  static void to_array(reg v, T* out) { std::memcpy(out, v.lane, sizeof(v.lane)); }
  static reg from_array(const T* p) { return load(p); }

  // Per-lane table lookup (int32 lanes only): r[l] = base[idx[l]].
  // Used by the inter-sequence kernel's substitution fetch.
  static reg gather(const T* base, reg idx)
    requires(sizeof(T) == 4)
  {
    reg r;
    for (int l = 0; l < kWidth; ++l) r.lane[l] = base[idx.lane[l]];
    return r;
  }
};

}  // namespace aalign::simd
