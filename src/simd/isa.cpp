#include "simd/isa.h"

#include <cstring>

#include "simd/fnv_lanes.h"
#include "simd/translate.h"
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

bool isa_available(IsaKind kind) {
  switch (kind) {
    case IsaKind::Scalar:
      return true;
    case IsaKind::Sse41:
#if defined(AALIGN_HAVE_SSE41)
      return isa_supported_by_cpu(kind);
#else
      return false;
#endif
    case IsaKind::Avx2:
#if defined(AALIGN_HAVE_AVX2)
      return isa_supported_by_cpu(kind);
#else
      return false;
#endif
    case IsaKind::Avx512:
#if defined(AALIGN_HAVE_AVX512)
      return isa_supported_by_cpu(kind);
#else
      return false;
#endif
    case IsaKind::Avx512Bw:
#if defined(AALIGN_HAVE_AVX512BW)
      return isa_supported_by_cpu(kind);
#else
      return false;
#endif
  }
  return false;
}

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

TranslateFn translate_fn([[maybe_unused]] IsaKind isa) {
#if defined(AALIGN_HAVE_AVX512BW)
  if (isa == IsaKind::Avx512Bw && isa_available(isa)) {
    return &translate_avx512bw;
  }
#endif
  return &translate_scalar;
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

FnvLanesFn fnv_lanes_fn([[maybe_unused]] IsaKind isa) {
#if defined(AALIGN_HAVE_AVX512)
  if ((isa == IsaKind::Avx512 || isa == IsaKind::Avx512Bw) &&
      isa_available(IsaKind::Avx512)) {
    return &fnv_lanes_avx512;
  }
#endif
#if defined(AALIGN_HAVE_AVX2)
  if (isa >= IsaKind::Avx2 && isa_available(IsaKind::Avx2)) {
    return &fnv_lanes_avx2;
  }
#endif
  return &fnv_lanes_scalar;
}

}  // namespace aalign::simd
