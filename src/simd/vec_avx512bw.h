// Extended AVX-512 backend (512-bit with BW+VBMI): 64 x int8, 32 x int16,
// 16 x int32.
//
// This is the forward-port the paper's Sec. II-A anticipates ("the
// incoming AVX-512"): the same kernel templates that ran on IMCI-profile
// 32-bit lanes get narrow integer lanes back, doubling/quadrupling lane
// counts. The cross-lane rshift_x_fill uses permutexvar at the lane
// granularity - epi8 requires VBMI, which is why this backend gates on
// Ice-Lake-and-newer CPUs while vec_avx512.h runs anywhere with F+BW+VL.
#pragma once

#if defined(__AVX512BW__) && defined(__AVX512VBMI__)

// Silence GCC PR105593: _mm512_undefined_epi32()'s `__Y = __Y;` idiom
// false-positives -Wmaybe-uninitialized when max/permutexvar intrinsics
// are inlined into loops. See vec_avx2.h for the full note.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <bit>
#include <cstddef>
#include <cstdint>

#include "simd/isa.h"
#include "simd/vec_avx512.h"  // detail::shift_index

namespace aalign::simd {

namespace detail {

// Popcount of a 512-bit AND, over raw bits (lane width irrelevant). BW
// gives pshufb and psadbw at 512 bits, so the whole Mula nibble-LUT
// scheme stays in-register: one shuffle pair per 64 bytes, psadbw folds
// to eight u64 partial sums, reduce_add finishes.
inline std::uint64_t popcnt_and_512(__m512i a, __m512i b) {
  const __m512i v = _mm512_and_si512(a, b);
  const __m512i lut = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
  const __m512i low = _mm512_set1_epi8(0x0F);
  const __m512i lo = _mm512_shuffle_epi8(lut, _mm512_and_si512(v, low));
  const __m512i hi = _mm512_shuffle_epi8(
      lut, _mm512_and_si512(_mm512_srli_epi16(v, 4), low));
  const __m512i sum =
      _mm512_sad_epu8(_mm512_add_epi8(lo, hi), _mm512_setzero_si512());
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(sum));
}

}  // namespace detail

// out[i] = table[in[i]] for i < n, through a 256-entry table: two vpermi2b
// over the table's low and high 128 entries, blended on each input byte's
// bit 7, 64 bytes per step; the tail is one masked step (masked-off bytes
// are neither read nor written).
inline void translate_bytes(const std::uint8_t* table, const char* in,
                            std::uint8_t* out, std::size_t n) {
  const __m512i t0 = _mm512_loadu_si512(table);
  const __m512i t1 = _mm512_loadu_si512(table + 64);
  const __m512i t2 = _mm512_loadu_si512(table + 128);
  const __m512i t3 = _mm512_loadu_si512(table + 192);
  const auto step = [&](__m512i x) {
    const __m512i lo = _mm512_permutex2var_epi8(t0, x, t1);
    const __m512i hi = _mm512_permutex2var_epi8(t2, x, t3);
    return _mm512_mask_blend_epi8(_mm512_movepi8_mask(x), lo, hi);
  };
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    _mm512_storeu_si512(out + i, step(_mm512_loadu_si512(in + i)));
  }
  if (i < n) {
    const __mmask64 m = (std::uint64_t{1} << (n - i)) - 1;
    _mm512_mask_storeu_epi8(out + i, m,
                            step(_mm512_maskz_loadu_epi8(m, in + i)));
  }
}

// The squeeze (simd/primitives.h), 64 bytes per step: compares give the
// whitespace, newline and ';' masks, and one vpermb packs the kept bytes
// to the front. A comment runs from its start through the next newline,
// which is the borrow chain of subtracting the starts from the newlines
// (a borrow out of the block: the block ends inside one). The vpermb index
// starts as the identity and is built one dropped lane at a time: every
// index at or past the dropped lane steps up by one (a 70-column line
// drops about one lane per block). The tail is one masked step, and each
// store is masked to the kept count, so nothing is read past src + n or
// written past the count.
inline std::size_t squeeze_bytes(const char* src, std::size_t n, char* dst) {
  const __m512i iota = _mm512_set_epi8(
      63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46,
      45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31, 30, 29, 28,
      27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10,
      9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i one = _mm512_set1_epi8(1);
  std::size_t k = 0;
  std::uint64_t line_start = 1;  // src[i] follows a '\n' (src[0] does)
  std::uint64_t in_comment = 0;  // src[i] is inside a comment line
  for (std::size_t i = 0; i < n; i += 64) {
    const std::uint64_t valid =
        n - i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n - i)) - 1;
    const __m512i x = _mm512_maskz_loadu_epi8(valid, src + i);
    const std::uint64_t nl = _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8('\n'));
    const std::uint64_t starts =
        _mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8(';')) &
        ((nl << 1) | line_start);
    const std::uint64_t from = starts | in_comment;
    const std::uint64_t drop =
        (_mm512_cmpeq_epi8_mask(x, _mm512_set1_epi8(' ')) |
         _mm512_cmple_epu8_mask(_mm512_sub_epi8(x, _mm512_set1_epi8('\t')),
                                _mm512_set1_epi8('\r' - '\t')) |
         ((nl - from) ^ nl)) &
        valid;
    in_comment = from > nl;
    line_start = nl >> 63;
    __m512i idx = iota;
    for (std::uint64_t d = drop; d != 0; d &= d - 1) {
      const __m512i lane = _mm512_set1_epi8(
          static_cast<char>(std::countr_zero(d)));
      idx = _mm512_mask_add_epi8(idx, _mm512_cmpge_epu8_mask(idx, lane), idx,
                                 one);
    }
    const int kept = std::popcount(valid & ~drop);
    const std::uint64_t out =
        kept == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << kept) - 1;
    _mm512_mask_storeu_epi8(dst + k, out, _mm512_permutexvar_epi8(idx, x));
    k += static_cast<std::size_t>(kept);
  }
  return k;
}

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Avx512BwTag> {
  using value_type = std::int8_t;
  using reg = __m512i;
  static constexpr int kWidth = 64;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm512_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm512_subs_epi8(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi8_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi8_mask(a, b);
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return _mm512_mask_permutexvar_epi8(lo, static_cast<__mmask64>(~0ull << N),
                                       detail::shift_index<value_type, N>(), x);
  }
  // In-register table lookup (indices 0..31; `row` 64-byte aligned with
  // >= 64 readable entries): one register holds the table, one vpermb
  // selects per lane. Needs VBMI.
  using table = reg;
  static constexpr int kLookupOps = 1;
  static constexpr int kIndexMul = 1, kIndexAdd = 0;
  static table load_table(const value_type* row) {
    return _mm512_load_si512(row);
  }
  static reg lookup(table t, reg idx) {
    return _mm512_permutexvar_epi8(idx, t);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
};

template <>
struct VecOps<std::int16_t, Avx512BwTag> {
  using value_type = std::int16_t;
  using reg = __m512i;
  static constexpr int kWidth = 32;

  static reg load(const value_type* p) { return _mm512_load_si512(p); }
  static void store(value_type* p, reg v) { _mm512_store_si512(p, v); }
  static reg set1(value_type x) { return _mm512_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm512_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm512_subs_epi16(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm512_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm512_cmpgt_epi16_mask(a, b) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return _mm512_cmpeq_epi16_mask(a, b);
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return _mm512_mask_permutexvar_epi16(lo, static_cast<__mmask32>(~0u << N),
                                       detail::shift_index<value_type, N>(), x);
  }
  // 32-entry table lookup: one register holds all 32 int16 entries (64
  // bytes). vpermw is two uops (measured 1.5x vpermb's cost per lookup on
  // Sapphire Rapids), so lookup is one vpermb instead, and an index lane
  // for entry c carries that entry's byte pair, (2c, 2c+1) =
  // c * kIndexMul + kIndexAdd.
  using table = reg;
  static constexpr int kLookupOps = 1;
  static constexpr int kIndexMul = 0x0202, kIndexAdd = 0x0100;
  static table load_table(const value_type* row) {
    return _mm512_load_si512(row);
  }
  static reg lookup(table t, reg idx) {
    return _mm512_permutexvar_epi8(idx, t);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
};

template <>
struct VecOps<std::int32_t, Avx512BwTag> {
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
    return _mm512_mask_permutexvar_epi32(lo, static_cast<__mmask16>(~0u << N),
                                       detail::shift_index<value_type, N>(), x);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_512(a, b);
  }
  static void to_array(reg v, value_type* out) { _mm512_storeu_si512(out, v); }
  static reg from_array(const value_type* p) { return _mm512_loadu_si512(p); }
  static reg gather(const value_type* base, reg idx) {
    return _mm512_i32gather_epi32(idx, base, 4);
  }
  // 32-entry table lookup across two registers: vpermt2d's index bit 4
  // selects the second table half (indices 0..31).
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

#endif  // __AVX512BW__ && __AVX512VBMI__
