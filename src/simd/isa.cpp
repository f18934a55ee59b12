#include "simd/isa.h"

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

}  // namespace aalign::simd
