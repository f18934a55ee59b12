// AVX2 backend (256-bit): 32 x int8, 16 x int16, 8 x int32.
//
// This is the paper's "CPU"/Haswell target. The interesting primitive is
// shift_lanes (the paper's rshift_x_fill, Fig. 7): AVX2 has no cross-lane
// byte shift, so for 8/16-bit lanes we splice the two 128-bit lanes with
// permute2x128 + alignr, and for 32-bit lanes we use the cross-lane
// permutevar8x32; the vacated low lanes then come from a second register -
// exactly the instruction selection the paper describes.
#pragma once

#if defined(__AVX2__)

// GCC 12's avx512fintrin.h implements _mm512_undefined_epi32() with the
// self-initialization idiom (`__m512i __Y = __Y;`), which trips
// -Wmaybe-uninitialized once intrinsics such as _mm512_max_epi32 or
// _mm512_permutexvar_epi32 are inlined into loops (GCC PR105593). The
// diagnostic state recorded here covers the header's source locations,
// silencing the false positive without losing the warning elsewhere.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <cstdint>

#include "simd/isa.h"
#include "simd/primitives.h"

namespace aalign::simd {

// The checksum lane update (simd/primitives.h) on 4 x u64 per register,
// the 32 lanes in eight registers. A lane step multiplies by the prime
// 2^40 + 0x1b3 as (x << 40) + lo32(x) * 0x1b3 + (hi32(x) * 0x1b3 << 32):
// two mul_epu32, no 64-bit multiply.
inline __m256i fnv_step_256(__m256i x, __m256i w) {
  const __m256i c = _mm256_set1_epi64x(0x1b3);
  x = _mm256_xor_si256(x, w);
  const __m256i lo = _mm256_mul_epu32(x, c);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), c);
  return _mm256_add_epi64(_mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32)),
                          _mm256_slli_epi64(x, 40));
}

inline void fnv_lanes_256(std::uint64_t* lanes, const void* data,
                          std::size_t strides) {
  constexpr int kRegs = kFnvLanes / 4;
  __m256i l[kRegs];
#pragma GCC unroll 8
  for (int r = 0; r < kRegs; ++r) {
    l[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes + 4 * r));
  }
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t s = 0; s < strides; ++s, p += kFnvStride) {
#pragma GCC unroll 8
    for (int r = 0; r < kRegs; ++r) {
      l[r] = fnv_step_256(
          l[r], _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p) + r));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < kRegs; ++r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4 * r), l[r]);
  }
}

// The offset scan (simd/primitives.h) on 4 x u64 per register: entries i,
// i - 1 and i - 2 come from three overlapping loads, and AVX2 compares
// only signed, so both sides of each unsigned compare have their sign bit
// flipped first.
inline OffsetFaults offset_scan_256(const std::uint64_t* off,
                                    std::size_t count) {
  OffsetFaults f;
  offset_scan_steps(off, 1, count < 2 ? count : 2, f);
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const auto greater = [sign](__m256i a, __m256i b) {
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
  };
  const auto at = [off](std::size_t k) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(off + k));
  };
  __m256i fall = _mm256_setzero_si256();
  __m256i growth = _mm256_setzero_si256();
  std::size_t i = 2;
  for (; i + 4 <= count; i += 4) {
    const __m256i a = at(i), b = at(i - 1), c = at(i - 2);
    fall = _mm256_or_si256(fall, greater(b, a));
    growth = _mm256_or_si256(
        growth, greater(_mm256_sub_epi64(a, b), _mm256_sub_epi64(b, c)));
  }
  f.fall |= !_mm256_testz_si256(fall, fall);
  f.growth |= !_mm256_testz_si256(growth, growth);
  offset_scan_steps(off, i, count, f);
  return f;
}

// The inverse check (simd/primitives.h) on 8 x u32 per register: a masked
// gather reads perm[inv[o]] for the lanes whose inv[o] is below n (the
// others read nothing), so a lane passes when it was read and names o.
inline InverseFaults inverse_check_256(const std::uint32_t* perm,
                                       const std::uint32_t* inv,
                                       std::size_t n) {
  InverseFaults f;
  std::size_t o = 0;
  if (n != 0 && n <= INT32_MAX) {
    const __m256i last = _mm256_set1_epi32(static_cast<int>(n - 1));
    const __m256i ones = _mm256_set1_epi32(-1);
    __m256i orig = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i bad = _mm256_setzero_si256();
    __m256i moved = _mm256_setzero_si256();
    for (; o + 8 <= n; o += 8) {
      const __m256i pos =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inv + o));
      const __m256i inside =
          _mm256_cmpeq_epi32(_mm256_min_epu32(pos, last), pos);
      const __m256i back = _mm256_mask_i32gather_epi32(
          _mm256_setzero_si256(), reinterpret_cast<const int*>(perm), pos,
          inside, 4);
      const __m256i ok =
          _mm256_and_si256(inside, _mm256_cmpeq_epi32(back, orig));
      bad = _mm256_or_si256(bad, _mm256_xor_si256(ok, ones));
      moved = _mm256_or_si256(moved, _mm256_xor_si256(pos, orig));
      orig = _mm256_add_epi32(orig, _mm256_set1_epi32(8));
    }
    f.bad = !_mm256_testz_si256(bad, bad);
    f.moved = !_mm256_testz_si256(moved, moved);
  }
  inverse_check_steps(perm, inv, o, n, f);
  return f;
}

namespace detail {

// Popcount of a 256-bit AND, over raw bits (lane width irrelevant). Same
// Mula nibble-LUT + psadbw scheme as the SSE4.1 backend, widened: the LUT
// is replicated into both 128-bit lanes and the four u64 partial sums are
// folded with one cross-lane extract.
inline std::uint64_t popcnt_and_256(__m256i a, __m256i b) {
  const __m256i v = _mm256_and_si256(a, b);
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low));
  const __m256i sum =
      _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
  const __m128i fold = _mm_add_epi64(_mm256_castsi256_si128(sum),
                                     _mm256_extracti128_si256(sum, 1));
  return static_cast<std::uint64_t>(_mm_extract_epi64(fold, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(fold, 1));
}

// shift_lanes over B = N * sizeof(T) bytes, 16 at most (int8 N = 16,
// int16 N = 8). At 16 one permute2x128 makes [lo_low ; x_low]. Below it,
// [0 ; x_low] lets alignr stitch the bytes that cross the 128-bit lanes
// and zero the low B bytes, and an OR puts back lo's, masked by a
// constant.
template <int B>
inline __m256i shift_bytes_256(__m256i x, __m256i lo) {
  if constexpr (B == 16) {
    return _mm256_permute2x128_si256(lo, x, 0x20);
  } else {
    static_assert(B <= 8);
    const __m256i t = _mm256_permute2x128_si256(x, x, 0x08);
    const __m256i low = _mm256_setr_epi64x(
        static_cast<long long>(~0ull >> (64 - 8 * B)), 0, 0, 0);
    return _mm256_or_si256(_mm256_alignr_epi8(x, t, 16 - B),
                           _mm256_and_si256(lo, low));
  }
}

}  // namespace detail

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Avx2Tag> {
  using value_type = std::int8_t;
  using reg = __m256i;
  static constexpr int kWidth = 32;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm256_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm256_subs_epi8(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi8(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return detail::shift_bytes_256<N * sizeof(value_type)>(x, lo);
  }
  // In-register 32-entry table lookup (indices 0..31, bit 7 clear; `row`
  // 64-byte aligned): pshufb only sees 16-byte windows, so load_table
  // broadcasts both table halves to the two 128-bit lanes, and lookup
  // shuffles by the low 4 index bits and blends on idx < 16 - four
  // instructions.
  struct table {
    reg lo, hi;
  };
  static constexpr int kLookupOps = 4;
  static constexpr int kIndexMul = 1, kIndexAdd = 0;
  static table load_table(const value_type* row) {
    return {_mm256_broadcastsi128_si256(
                _mm_load_si128(reinterpret_cast<const __m128i*>(row))),
            _mm256_broadcastsi128_si256(
                _mm_load_si128(reinterpret_cast<const __m128i*>(row + 16)))};
  }
  static reg lookup(const table& t, reg idx) {
    const reg in_lo = _mm256_cmpgt_epi8(_mm256_set1_epi8(16), idx);
    return _mm256_blendv_epi8(_mm256_shuffle_epi8(t.hi, idx),
                              _mm256_shuffle_epi8(t.lo, idx), in_lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

template <>
struct VecOps<std::int16_t, Avx2Tag> {
  using value_type = std::int16_t;
  using reg = __m256i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm256_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm256_subs_epi16(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi16(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    // packs narrows lane masks to bytes but interleaves the 128-bit
    // halves: result bytes [0..7] are lanes 0-7, bytes [16..23] lanes
    // 8-15. Stitch the two movemask byte-groups back together.
    const reg c =
        _mm256_packs_epi16(_mm256_cmpeq_epi16(a, b), _mm256_setzero_si256());
    const auto m =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(c));
    return (m & 0xFFu) | ((m >> 8) & 0xFF00u);
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return detail::shift_bytes_256<N * sizeof(value_type)>(x, lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
};

template <>
struct VecOps<std::int32_t, Avx2Tag> {
  using value_type = std::int32_t;
  using reg = __m256i;
  static constexpr int kWidth = 8;

  static reg load(const value_type* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg set1(value_type x) { return _mm256_set1_epi32(x); }
  static reg adds(reg a, reg b) { return _mm256_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm256_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm256_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm256_movemask_epi8(_mm256_cmpgt_epi32(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint64_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(a, b))));
  }
  // One permutevar8x32 and a blend at every N (the lanes below N read a
  // wrapped index and are blended away).
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    const reg idx = _mm256_sub_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                     _mm256_set1_epi32(N));
    return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(x, idx), lo,
                              (1 << N) - 1);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_256(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static reg gather(const value_type* base, reg idx) {
    return _mm256_i32gather_epi32(base, idx, 4);
  }
};

}  // namespace aalign::simd

#endif  // __AVX2__
