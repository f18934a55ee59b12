// Runtime kernel dispatch: IsaKind -> backend record, guarded by
// compile-time availability and cpuid; the engines are its fields.
#include "core/backends.h"

namespace aalign::core {

namespace {

const Backend* backend(simd::IsaKind isa) {
  if (!simd::isa_available(isa)) return nullptr;
  switch (isa) {
    case simd::IsaKind::Scalar:
      return &backend_scalar();
#if defined(AALIGN_HAVE_SSE41)
    case simd::IsaKind::Sse41:
      return &backend_sse41();
#endif
#if defined(AALIGN_HAVE_AVX2)
    case simd::IsaKind::Avx2:
      return &backend_avx2();
#endif
#if defined(AALIGN_HAVE_AVX512)
    case simd::IsaKind::Avx512:
      return &backend_avx512();
#endif
#if defined(AALIGN_HAVE_AVX512BW)
    case simd::IsaKind::Avx512Bw:
      return &backend_avx512bw();
#endif
    default:
      return nullptr;  // compiled out
  }
}

}  // namespace

template <class T>
const Engine<T>* get_engine(simd::IsaKind isa) {
  const Backend* b = backend(isa);
  if (b == nullptr) return nullptr;
  if constexpr (sizeof(T) == 1) {
    return b->i8;
  } else if constexpr (sizeof(T) == 2) {
    return b->i16;
  } else {
    return b->i32;
  }
}

template const Engine<std::int8_t>* get_engine(simd::IsaKind);
template const Engine<std::int16_t>* get_engine(simd::IsaKind);
template const Engine<std::int32_t>* get_engine(simd::IsaKind);

const InterEngine* get_inter_engine(simd::IsaKind isa) {
  const Backend* b = backend(isa);
  return b != nullptr ? b->inter : nullptr;
}

}  // namespace aalign::core
