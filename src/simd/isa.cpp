#include "simd/isa.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <iterator>
#include <tuple>

#include "simd/primitives.h"
#include "simd/vec_scalar.h"
#include "util/cpuinfo.h"

namespace aalign::simd {

const char* isa_name(IsaKind kind) {
  switch (kind) {
    case IsaKind::Scalar: return ScalarTag::kName;
    case IsaKind::Sse41: return Sse41Tag::kName;
    case IsaKind::Avx2: return Avx2Tag::kName;
    case IsaKind::Avx512: return Avx512Tag::kName;
    case IsaKind::Avx512Bw: return Avx512BwTag::kName;
  }
  return "unknown";
}

bool isa_supported_by_cpu(IsaKind kind) {
  const util::CpuFeatures& f = util::cpu_features();
  switch (kind) {
    case IsaKind::Scalar: return true;
    case IsaKind::Sse41: return f.sse41;
    case IsaKind::Avx2: return f.avx2;
    case IsaKind::Avx512: return f.avx512;
    case IsaKind::Avx512Bw: return f.avx512vbmi;
  }
  return false;
}

bool isa_available(IsaKind kind) { return own_primitives(kind) != nullptr; }

IsaKind best_available_isa() {
  if (isa_available(IsaKind::Avx512Bw)) return IsaKind::Avx512Bw;
  if (isa_available(IsaKind::Avx512)) return IsaKind::Avx512;
  if (isa_available(IsaKind::Avx2)) return IsaKind::Avx2;
  if (isa_available(IsaKind::Sse41)) return IsaKind::Sse41;
  return IsaKind::Scalar;
}

void translate_scalar(const std::uint8_t* table, const char* in,
                      std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = table[static_cast<unsigned char>(in[i])];
  }
}

namespace {

constexpr std::uint64_t kOnes = 0x0101010101010101;
constexpr std::uint64_t kHigh = kOnes * 0x80;
constexpr std::uint64_t kLow7 = kOnes * 0x7F;

// 0x80 in each byte of w equal to c, exactly (no borrow between bytes).
std::uint64_t bytes_equal(std::uint64_t w, unsigned char c) {
  const std::uint64_t x = w ^ (kOnes * c);
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

// The high bits of the bytes of `high` as an 8-bit mask, byte 0 in bit 0.
unsigned byte_mask(std::uint64_t high) {
  return static_cast<unsigned>(((high & kHigh) * 0x0002040810204081) >> 56);
}

}  // namespace

std::size_t squeeze_scalar(const char* src, std::size_t n, char* dst) {
  std::size_t k = 0, i = 0;
  unsigned line_start = 1;  // the next byte follows a '\n' (src[0] does)
  unsigned in_comment = 0;  // the next byte is inside a comment line
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + i, 8);
    // Any byte below '!' or equal to ';': a superset of the dropped ones.
    const std::uint64_t semi = w ^ (kOnes * ';');
    const std::uint64_t rough =
        ((w - kOnes * '!') & ~w) | ((semi - kOnes) & ~semi);
    if (((rough & kHigh) | in_comment) == 0) {
      std::memcpy(dst + k, &w, 8);
      k += 8;
      line_start = 0;
      continue;
    }
    const std::uint64_t low7 = w & kLow7;
    const std::uint64_t controls =  // '\t'..'\r': below 0x80, 9 <= low7 < 14
        (low7 + kOnes * (0x80 - '\t')) & ~(low7 + kOnes * (0x80 - '\r' - 1)) &
        ~w;
    const unsigned space = byte_mask(controls | bytes_equal(w, ' '));
    const unsigned nl = byte_mask(bytes_equal(w, '\n'));
    const unsigned from =
        (byte_mask(bytes_equal(w, ';')) & ((nl << 1) | line_start)) |
        in_comment;
    // A comment runs from its start through the next newline: the borrow
    // chain of subtracting the starts from the newlines, whose guard bit 8
    // is taken when the word ends inside one.
    const unsigned guarded = nl | 0x100;
    const unsigned comment = (guarded - from) ^ guarded;
    in_comment = comment >> 8;
    line_start = nl >> 7;
    const unsigned drop = (space | comment) & 0xFF;
    // Shifts each dropped byte out, highest first, then stores the word at
    // the cursor (the bytes past the kept ones are overwritten later).
    for (unsigned d = drop; d != 0;) {
      const int p = std::bit_width(d) - 1;
      d ^= 1U << p;
      const std::uint64_t below = (std::uint64_t{1} << (8 * p)) - 1;
      w = (w & below) | ((w >> 8) & ~below);
    }
    std::memcpy(dst + k, &w, 8);
    k += 8 - static_cast<std::size_t>(std::popcount(drop));
  }
  for (; i < n; ++i) {  // the tail, branch-free
    const auto c = static_cast<unsigned char>(src[i]);
    in_comment |= line_start & static_cast<unsigned>(c == ';');
    const unsigned space =
        static_cast<unsigned>(c == ' ') |
        static_cast<unsigned>(static_cast<unsigned char>(c - '\t') <=
                              '\r' - '\t');
    dst[k] = static_cast<char>(c);
    k += (space | in_comment) ^ 1U;
    line_start = static_cast<unsigned>(c == '\n');
    in_comment &= line_start ^ 1U;
  }
  return k;
}

namespace {

template <class L>
std::uint8_t stripe_cells(const std::uint8_t* q, std::size_t m,
                          std::size_t segs, std::size_t width,
                          std::uint8_t pad, StripeCode code, L* out) {
  std::uint8_t top = 0;
  for (std::size_t e = 0; e < m; ++e) top = std::max(top, q[e]);
  for (std::size_t l = 0; l < width; ++l) {
    for (std::size_t j = 0; j < segs; ++j) {
      const std::size_t e = l * segs + j;
      const int c = e < m ? q[e] : pad;
      out[j * width + l] =
          static_cast<L>(static_cast<unsigned>(c * code.mul + code.add));
    }
  }
  return top;
}

}  // namespace

std::uint8_t stripe_scalar(const std::uint8_t* q, std::size_t m,
                           std::size_t segs, std::size_t width,
                           std::uint8_t pad, StripeCode code, void* out) {
  switch (code.bytes) {
    case 1:
      return stripe_cells(q, m, segs, width, pad, code,
                          static_cast<std::uint8_t*>(out));
    case 2:
      return stripe_cells(q, m, segs, width, pad, code,
                          static_cast<std::uint16_t*>(out));
    default:
      return stripe_cells(q, m, segs, width, pad, code,
                          static_cast<std::uint32_t*>(out));
  }
}

void fnv_lanes_scalar(std::uint64_t* lanes, const void* data,
                      std::size_t strides) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t s = 0; s < strides; ++s, p += kFnvStride) {
    std::uint64_t w[kFnvLanes];
    std::memcpy(w, p, sizeof w);
    for (std::size_t k = 0; k < kFnvLanes; ++k) {
      lanes[k] = (lanes[k] ^ w[k]) * kFnvPrime;
    }
  }
}

OffsetFaults offset_scan_scalar(const std::uint64_t* off, std::size_t count) {
  OffsetFaults f;
  offset_scan_steps(off, 1, count, f);
  return f;
}

InverseFaults inverse_check_scalar(const std::uint32_t* perm,
                                   const std::uint32_t* inv, std::size_t n) {
  InverseFaults f;
  inverse_check_steps(perm, inv, 0, n, f);
  return f;
}

std::uint64_t popcount_and_scalar(const std::int32_t* a,
                                  const std::int32_t* b, std::size_t words) {
  return popcount_and_sweep<VecOps<std::int32_t, ScalarTag>>(a, b, words);
}

namespace {

constexpr Primitives kScalarPrimitives{
    .translate = &translate_scalar,
    .squeeze = &squeeze_scalar,
    .stripe = &stripe_scalar,
    .fnv_lanes = &fnv_lanes_scalar,
    .offset_scan = &offset_scan_scalar,
    .inverse_check = &inverse_check_scalar,
    .popcount_and = &popcount_and_scalar,
};

}  // namespace

// The backends this binary holds (isa_available reads it too). The CPU
// check comes first, so no code of a backend's TU runs on a CPU without
// its ISA.
const Primitives* own_primitives(IsaKind isa) {
  if (!isa_supported_by_cpu(isa)) return nullptr;
  switch (isa) {
    case IsaKind::Scalar:
      return &kScalarPrimitives;
    case IsaKind::Sse41:
#if defined(AALIGN_HAVE_SSE41)
      return &primitives_sse41();
#else
      return nullptr;
#endif
    case IsaKind::Avx2:
#if defined(AALIGN_HAVE_AVX2)
      return &primitives_avx2();
#else
      return nullptr;
#endif
    case IsaKind::Avx512:
#if defined(AALIGN_HAVE_AVX512)
      return &primitives_avx512();
#else
      return nullptr;
#endif
    case IsaKind::Avx512Bw:
#if defined(AALIGN_HAVE_AVX512BW)
      return &primitives_avx512bw();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

const Primitives& primitives(IsaKind isa) {
  // Row k is row k - 1 with the own forms of k laid over it when k is
  // available, so each field holds the highest available own form (the
  // scalar row fills every field).
  static const auto table = [] {
    std::array<Primitives, std::size(kAllIsaKinds)> rows{};
    Primitives merged;
    for (const IsaKind k : kAllIsaKinds) {
      if (const Primitives* own = own_primitives(k)) {
        std::apply(
            [&](auto... field) {
              ((merged.*field = own->*field ? own->*field : merged.*field),
               ...);
            },
            kPrimitiveFields);
      }
      rows[static_cast<std::size_t>(k)] = merged;
    }
    return rows;
  }();
  return table[static_cast<std::size_t>(isa)];
}

const Primitives& primitives() {
  static const Primitives& best = primitives(best_available_isa());
  return best;
}

}  // namespace aalign::simd
