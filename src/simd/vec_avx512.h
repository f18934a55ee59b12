// AVX-512 backend (512-bit), the stand-in for the paper's IMCI/Knights
// Corner "MIC" target.
//
// Faithfulness notes:
//  - IMCI supports only 32-bit integer lanes; we keep the same restriction
//    so kernel behaviour (16 x int32 per vector) matches the paper's MIC
//    configuration. Defining VecOps for int32 only is the whole of it:
//    the backend record (core::make_backend) gets no int8/int16 engines
//    and no int8/int16 inter tiers.
//  - influence_test on IMCI produces a 16-bit mask register that is tested
//    with a single compare; AVX-512's __mmask16 gives the identical shape
//    (contrast with AVX2, where the mask lives in a 256-bit vector and
//    needs movemask - the exact asymmetry Sec. V-C discusses).
//  - rshift_x_fill (shift_lanes) is one masked cross-lane permutexvar,
//    the AVX-512 equivalent of IMCI's permutevar + swizzle combination.
#pragma once

#if defined(__AVX512F__)

// Silence GCC PR105593: _mm512_undefined_epi32()'s `__Y = __Y;` idiom
// false-positives -Wmaybe-uninitialized when max/permutexvar intrinsics
// are inlined into loops. See vec_avx2.h for the full note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/isa.h"
#include "simd/primitives.h"

namespace aalign::simd {

// The checksum lane update (simd/primitives.h) on 8 x u64 per register,
// the 32 lanes in four registers; AVX-512F only. The multiply by the
// prime 2^40 + 0x1b3 splits as in vec_avx2.h's fnv_step_256.
inline __m512i fnv_step_512(__m512i x, __m512i w) {
  const __m512i c = _mm512_set1_epi64(0x1b3);
  x = _mm512_xor_si512(x, w);
  const __m512i lo = _mm512_mul_epu32(x, c);
  const __m512i hi = _mm512_mul_epu32(_mm512_srli_epi64(x, 32), c);
  return _mm512_add_epi64(_mm512_add_epi64(lo, _mm512_slli_epi64(hi, 32)),
                          _mm512_slli_epi64(x, 40));
}

inline void fnv_lanes_512(std::uint64_t* lanes, const void* data,
                          std::size_t strides) {
  constexpr int kRegs = kFnvLanes / 8;
  __m512i l[kRegs];
#pragma GCC unroll 4
  for (int r = 0; r < kRegs; ++r) l[r] = _mm512_loadu_si512(lanes + 8 * r);
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t s = 0; s < strides; ++s, p += kFnvStride) {
#pragma GCC unroll 4
    for (int r = 0; r < kRegs; ++r) {
      l[r] = fnv_step_512(l[r], _mm512_loadu_si512(p + 64 * r));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < kRegs; ++r) _mm512_storeu_si512(lanes + 8 * r, l[r]);
}

// The offset scan (simd/primitives.h) on 8 x u64 per register: entries
// i - 1 and i - 2 are shifted in from the register before (valignq), so
// each step makes one load; AVX-512F compares unsigned into mask
// registers, which set lanes of two accumulators.
inline OffsetFaults offset_scan_512(const std::uint64_t* off,
                                    std::size_t count) {
  OffsetFaults f;
  offset_scan_steps(off, 1, count < 8 ? count : 8, f);
  const __m512i ones = _mm512_set1_epi64(-1);
  __m512i fall = _mm512_setzero_si512();
  __m512i growth = _mm512_setzero_si512();
  std::size_t i = 8;
  for (; i + 8 <= count; i += 8) {
    const __m512i before = _mm512_loadu_si512(off + i - 8);
    const __m512i a = _mm512_loadu_si512(off + i);
    const __m512i b = _mm512_alignr_epi64(a, before, 7);
    const __m512i c = _mm512_alignr_epi64(a, before, 6);
    fall = _mm512_mask_mov_epi64(fall, _mm512_cmplt_epu64_mask(a, b), ones);
    growth = _mm512_mask_mov_epi64(
        growth,
        _mm512_cmpgt_epu64_mask(_mm512_sub_epi64(a, b),
                                _mm512_sub_epi64(b, c)),
        ones);
  }
  f.fall |= _mm512_test_epi64_mask(fall, fall) != 0;
  f.growth |= _mm512_test_epi64_mask(growth, growth) != 0;
  offset_scan_steps(off, i, count, f);
  return f;
}

namespace detail {

// Permute indices for shift_lanes<N> over a 512-bit register of T: lane l
// reads lane l - N. The lanes below N are masked off (they keep `lo`).
template <class T, int N>
alignas(64) inline constexpr auto kShiftIndex = [] {
  std::array<T, 64 / sizeof(T)> idx{};
  for (std::size_t l = N; l < idx.size(); ++l) idx[l] = static_cast<T>(l - N);
  return idx;
}();

template <class T, int N>
inline __m512i shift_index() {
  return _mm512_load_si512(kShiftIndex<T, N>.data());
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int32_t, Avx512Tag> {
  using value_type = std::int32_t;
  using reg = __m512i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi32(x); }
  static reg adds(reg a, reg b) { return _mm512_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm512_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi32_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi32_mask(a, b);
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return _mm512_mask_permutexvar_epi32(
        lo, static_cast<__mmask16>(~0u << N),
        detail::shift_index<value_type, N>(), x);
  }
  // Popcount of the 512-bit AND, over raw bits. Plain AVX-512F has no
  // vector popcount (VPOPCNTDQ is a separate extension we do not compile
  // for) and no 512-bit psadbw without BW, so the AND spills to eight u64
  // words counted scalar-side - still one AND + 8 popcnt per 64 bytes.
  static std::uint64_t popcount_and(reg a, reg b) {
    alignas(64) std::uint64_t w[8];
    _mm512_store_si512(w, _mm512_and_si512(a, b));
    std::uint64_t n = 0;
    for (std::uint64_t x : w) n += static_cast<std::uint64_t>(std::popcount(x));
    return n;
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
  static reg gather(const value_type* base, reg idx) {
    return _mm512_i32gather_epi32(idx, base, 4);
  }
  // In-register 32-entry table lookup (indices 0..31; `row` 64-byte
  // aligned with >= 32 readable entries): load_table holds both 16-entry
  // halves, and one vpermt2d selects, its index bit 4 picking the half.
  // IMCI would spell this permutevar + a blend on the high index bit -
  // same two-register shape.
  struct table {
    reg lo, hi;
  };
  static constexpr int kLookupOps = 1;
  static constexpr int kIndexMul = 1, kIndexAdd = 0;
  static table load_table(const value_type* row) {
    return {_mm512_load_si512(row), _mm512_load_si512(row + 16)};
  }
  static reg lookup(const table& t, reg idx) {
    return _mm512_permutex2var_epi32(t.lo, idx, t.hi);
  }
};

}  // namespace aalign::simd

#endif  // __AVX512F__
