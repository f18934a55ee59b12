// SSE4.1 backend (128-bit): 16 x int8, 8 x int16, 4 x int32.
//
// This is the ISA Farrar's original striped Smith-Waterman targeted; it is
// compiled only into TUs built with -msse4.1 (src/CMakeLists.txt) and the
// dispatcher guards it behind a cpuid check.
#pragma once

#if defined(__SSE4_1__)

#include <smmintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/isa.h"
#include "simd/primitives.h"

namespace aalign::simd {

namespace detail {

// Popcount of a 128-bit AND, over raw bits (lane width irrelevant, so all
// three specializations share it). SSE4.1 has no vector popcount; this is
// the Mula nibble-LUT scheme: pshufb maps each nibble to its bit count and
// psadbw folds the byte counts into two u64 partial sums.
inline std::uint64_t popcnt_and_128(__m128i a, __m128i b) {
  const __m128i v = _mm_and_si128(a, b);
  const __m128i lut =
      _mm_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m128i low = _mm_set1_epi8(0x0F);
  const __m128i lo = _mm_shuffle_epi8(lut, _mm_and_si128(v, low));
  const __m128i hi =
      _mm_shuffle_epi8(lut, _mm_and_si128(_mm_srli_epi16(v, 4), low));
  const __m128i sum = _mm_sad_epu8(_mm_add_epi8(lo, hi), _mm_setzero_si128());
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

// shift_lanes over B = N * sizeof(T) bytes (B <= 8): the byte shift zeroes
// the low B bytes, and an OR puts back lo's, masked by a constant.
template <int B>
inline __m128i shift_bytes_128(__m128i x, __m128i lo) {
  static_assert(B <= 8);
  const __m128i low = _mm_cvtsi64_si128(
      static_cast<long long>(~0ull >> (64 - 8 * B)));
  return _mm_or_si128(_mm_slli_si128(x, B), _mm_and_si128(lo, low));
}

// Transposes the 16x16 byte tile held as r[i] = row i, in place: four
// rounds of unpacks, pairing 1-, 2-, 4- and 8-byte blocks of row pairs.
inline void transpose_16x16(__m128i (&r)[16]) {
  __m128i a[16], b[16];
  for (int i = 0; i < 16; i += 2) {  // a[i], a[i+1]: rows i, i+1 interleaved
    a[i] = _mm_unpacklo_epi8(r[i], r[i + 1]);
    a[i + 1] = _mm_unpackhi_epi8(r[i], r[i + 1]);
  }
  for (int g = 0; g < 16; g += 4) {  // b[g + k]: rows g..g+3, columns 4k..
    b[g] = _mm_unpacklo_epi16(a[g], a[g + 2]);
    b[g + 1] = _mm_unpackhi_epi16(a[g], a[g + 2]);
    b[g + 2] = _mm_unpacklo_epi16(a[g + 1], a[g + 3]);
    b[g + 3] = _mm_unpackhi_epi16(a[g + 1], a[g + 3]);
  }
  for (int h = 0; h < 16; h += 8) {  // a[h + t]: rows h..h+7, columns 2t..
    for (int k = 0; k < 4; ++k) {
      a[h + 2 * k] = _mm_unpacklo_epi32(b[h + k], b[h + 4 + k]);
      a[h + 2 * k + 1] = _mm_unpackhi_epi32(b[h + k], b[h + 4 + k]);
    }
  }
  for (int t = 0; t < 8; ++t) {  // r[c]: column c
    r[2 * t] = _mm_unpacklo_epi64(a[t], a[8 + t]);
    r[2 * t + 1] = _mm_unpackhi_epi64(a[t], a[8 + t]);
  }
}

// Codes 16 index bytes into 16 lanes of Bytes bytes each, c * mul + add
// truncated (Identity: the bytes as they are), and stores them at dst:
// whole registers, or the first n lanes through a spill and one memcpy.
template <int Bytes, bool Identity>
struct LaneCoder {
  explicit LaneCoder(const StripeCode& c)
      : mul16(_mm_set1_epi16(static_cast<short>(c.mul))),
        add16(_mm_set1_epi16(static_cast<short>(c.add))),
        mul32(_mm_set1_epi32(c.mul)),
        add32(_mm_set1_epi32(c.add)) {}

  static constexpr int kRegs = Bytes == 1 ? 1 : Bytes == 2 ? 2 : 4;

  void code(__m128i x, __m128i (&v)[kRegs]) const {
    if constexpr (Identity) {
      v[0] = x;
    } else if constexpr (Bytes <= 2) {
      const __m128i lo = _mm_add_epi16(
          _mm_mullo_epi16(_mm_cvtepu8_epi16(x), mul16), add16);
      const __m128i hi = _mm_add_epi16(
          _mm_mullo_epi16(_mm_cvtepu8_epi16(_mm_srli_si128(x, 8)), mul16),
          add16);
      if constexpr (Bytes == 1) {
        const __m128i low = _mm_set1_epi16(0xFF);
        v[0] = _mm_packus_epi16(_mm_and_si128(lo, low),
                                _mm_and_si128(hi, low));
      } else {
        v[0] = lo;
        v[1] = hi;
      }
    } else {
      v[0] = _mm_cvtepu8_epi32(x);
      v[1] = _mm_cvtepu8_epi32(_mm_srli_si128(x, 4));
      v[2] = _mm_cvtepu8_epi32(_mm_srli_si128(x, 8));
      v[3] = _mm_cvtepu8_epi32(_mm_srli_si128(x, 12));
      for (__m128i& w : v) w = _mm_add_epi32(_mm_mullo_epi32(w, mul32), add32);
    }
  }

  void put(__m128i x, std::uint8_t* dst) const {
    __m128i v[kRegs];
    code(x, v);
    for (int k = 0; k < kRegs; ++k) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16 * k), v[k]);
    }
  }

  void put(__m128i x, std::uint8_t* dst, std::size_t n) const {
    __m128i v[kRegs];
    code(x, v);
    alignas(16) std::uint8_t spill[16 * kRegs];
    for (int k = 0; k < kRegs; ++k) {
      _mm_store_si128(reinterpret_cast<__m128i*>(spill + 16 * k), v[k]);
    }
    std::memcpy(dst, spill, n * Bytes);
  }

  __m128i mul16, add16, mul32, add32;
};

// stripe_tiles at one lane coding: whole tiles (16 whole rows of 16
// lanes) go straight from 16 loads through the transpose to 16 coded
// stores; in the others each row that is not whole is masked to its live
// bytes (loaded through one bounded memcpy only within 16 bytes of the
// query's end) and blended to the pad past them, and rows narrower than
// 16 lanes are stored through one memcpy.
template <int Bytes, bool Identity>
inline std::uint8_t stripe_tiles_coded(const std::uint8_t* q, std::size_t m,
                                       std::size_t segs, std::size_t width,
                                       std::uint8_t pad, StripeCode code,
                                       std::uint8_t* dst) {
  const __m128i iota =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m128i padv = _mm_set1_epi8(static_cast<char>(pad));
  const LaneCoder<Bytes, Identity> coder(code);
  __m128i top = _mm_setzero_si128();
  for (std::size_t j0 = 0; j0 < segs; j0 += 16) {
    const std::size_t cols = std::min<std::size_t>(16, segs - j0);
    for (std::size_t l0 = 0; l0 < width; l0 += 16) {
      const std::size_t lanes = std::min<std::size_t>(16, width - l0);
      __m128i r[16];
      const bool whole =
          cols == 16 && lanes == 16 && (l0 + 15) * segs + j0 + 16 <= m;
      if (whole) {
        for (std::size_t i = 0; i < 16; ++i) {
          r[i] = _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(q + (l0 + i) * segs + j0));
          top = _mm_max_epu8(top, r[i]);
        }
      } else {
        for (std::size_t i = 0; i < 16; ++i) {
          const std::size_t start = (l0 + i) * segs + j0;
          const std::size_t live =
              i < lanes && start < m ? std::min(cols, m - start) : 0;
          const __m128i keep =
              _mm_cmpgt_epi8(_mm_set1_epi8(static_cast<char>(live)), iota);
          __m128i x;
          if (live != 0 && start + 16 <= m) {
            x = _mm_and_si128(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + start)),
                keep);
          } else {
            alignas(16) std::uint8_t row[16] = {};
            if (live != 0) std::memcpy(row, q + start, live);
            x = _mm_load_si128(reinterpret_cast<const __m128i*>(row));
          }
          top = _mm_max_epu8(top, x);
          r[i] = _mm_blendv_epi8(padv, x, keep);
        }
      }
      transpose_16x16(r);
      std::uint8_t* out = dst + (j0 * width + l0) * Bytes;
      const std::size_t row_bytes = width * Bytes;
      if (lanes == 16) {
        for (std::size_t c = 0; c < cols; ++c) {
          coder.put(r[c], out + c * row_bytes);
        }
      } else {
        for (std::size_t c = 0; c < cols; ++c) {
          coder.put(r[c], out + c * row_bytes, lanes);
        }
      }
    }
  }
  top = _mm_max_epu8(top, _mm_srli_si128(top, 8));
  top = _mm_max_epu8(top, _mm_srli_si128(top, 4));
  top = _mm_max_epu8(top, _mm_srli_si128(top, 2));
  top = _mm_max_epu8(top, _mm_srli_si128(top, 1));
  return static_cast<std::uint8_t>(_mm_cvtsi128_si32(top));
}

}  // namespace detail

// The striping (simd/primitives.h) in 16x16 byte tiles: tile (l0, j0)
// loads 16 query rows of 16 bytes (row l = q[l*segs + j0 ...]), folds
// them into the running max, transposes them in registers and codes each
// column straight into output row j0 + c, lanes l0... Rows that are not
// whole (the query's end, the last columns, the rows past width) have
// their dead bytes blended to the pad. Nothing is read past q + m or
// written past the output.
inline std::uint8_t stripe_tiles(const std::uint8_t* q, std::size_t m,
                                 std::size_t segs, std::size_t width,
                                 std::uint8_t pad, StripeCode code,
                                 void* out) {
  auto* const dst = static_cast<std::uint8_t*>(out);
  switch (code.bytes) {
    case 1:
      return code.mul == 1 && code.add == 0
                 ? detail::stripe_tiles_coded<1, true>(q, m, segs, width, pad,
                                                       code, dst)
                 : detail::stripe_tiles_coded<1, false>(q, m, segs, width,
                                                        pad, code, dst);
    case 2:
      return detail::stripe_tiles_coded<2, false>(q, m, segs, width, pad,
                                                  code, dst);
    default:
      return detail::stripe_tiles_coded<4, false>(q, m, segs, width, pad,
                                                  code, dst);
  }
}

template <class T, class Isa>
struct VecOps;

template <>
struct VecOps<std::int8_t, Sse41Tag> {
  using value_type = std::int8_t;
  using reg = __m128i;
  static constexpr int kWidth = 16;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi8(x); }
  static reg adds(reg a, reg b) { return _mm_adds_epi8(a, b); }
  static reg subs(reg a, reg b) { return _mm_subs_epi8(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi8(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi8(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi8(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint16_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(a, b)));
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return detail::shift_bytes_128<N * sizeof(value_type)>(x, lo);
  }
  // In-register 32-entry table lookup (indices 0..31, bit 7 clear; `row`
  // 64-byte aligned): load_table holds the two 16-entry halves, lookup is
  // two pshufbs blended on idx < 16 - four instructions.
  struct table {
    reg lo, hi;
  };
  static constexpr int kLookupOps = 4;
  static constexpr int kIndexMul = 1, kIndexAdd = 0;
  static table load_table(const value_type* row) {
    return {_mm_load_si128(reinterpret_cast<const __m128i*>(row)),
            _mm_load_si128(reinterpret_cast<const __m128i*>(row + 16))};
  }
  static reg lookup(const table& t, reg idx) {
    const reg in_lo = _mm_cmplt_epi8(idx, _mm_set1_epi8(16));
    return _mm_blendv_epi8(_mm_shuffle_epi8(t.hi, idx),
                           _mm_shuffle_epi8(t.lo, idx), in_lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
};

template <>
struct VecOps<std::int16_t, Sse41Tag> {
  using value_type = std::int16_t;
  using reg = __m128i;
  static constexpr int kWidth = 8;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi16(x); }
  static reg adds(reg a, reg b) { return _mm_adds_epi16(a, b); }
  static reg subs(reg a, reg b) { return _mm_subs_epi16(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi16(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi16(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi16(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    // packs narrows the 0xFFFF/0x0000 lane masks to bytes (saturation
    // keeps -1 at -1), giving one movemask bit per int16 lane.
    const reg c = _mm_packs_epi16(_mm_cmpeq_epi16(a, b), _mm_setzero_si128());
    return static_cast<std::uint64_t>(_mm_movemask_epi8(c)) & 0xFFu;
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return detail::shift_bytes_128<N * sizeof(value_type)>(x, lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
};

template <>
struct VecOps<std::int32_t, Sse41Tag> {
  using value_type = std::int32_t;
  using reg = __m128i;
  static constexpr int kWidth = 4;

  static reg load(const value_type* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(value_type* p, reg v) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), v);
  }
  static reg set1(value_type x) { return _mm_set1_epi32(x); }
  // 32-bit kernels rely on range checks, not saturation (matches x86: there
  // is no adds_epi32 before AVX-512VL anyway).
  static reg adds(reg a, reg b) { return _mm_add_epi32(a, b); }
  static reg subs(reg a, reg b) { return _mm_sub_epi32(a, b); }
  static reg max(reg a, reg b) { return _mm_max_epi32(a, b); }
  static reg min(reg a, reg b) { return _mm_min_epi32(a, b); }
  static bool any_gt(reg a, reg b) {
    return _mm_movemask_epi8(_mm_cmpgt_epi32(a, b)) != 0;
  }
  static std::uint64_t eq_mask(reg a, reg b) {
    return static_cast<std::uint64_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, b))));
  }
  template <int N>
  static reg shift_lanes(reg x, reg lo) {
    return detail::shift_bytes_128<N * sizeof(value_type)>(x, lo);
  }
  static std::uint64_t popcount_and(reg a, reg b) {
    return detail::popcnt_and_128(a, b);
  }
  static void to_array(reg v, value_type* out) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
  }
  static reg from_array(const value_type* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  // SSE4.1 has no gather instruction; extract/insert emulation.
  static reg gather(const value_type* base, reg idx) {
    return _mm_setr_epi32(base[_mm_extract_epi32(idx, 0)],
                          base[_mm_extract_epi32(idx, 1)],
                          base[_mm_extract_epi32(idx, 2)],
                          base[_mm_extract_epi32(idx, 3)]);
  }
};

}  // namespace aalign::simd

#endif  // __SSE4_1__
