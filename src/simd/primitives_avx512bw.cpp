// The AVX-512 BW+VBMI primitives record. Compiled with the avx512bw flag
// set only; reached through simd::primitives() behind cpuid
// (simd/isa.cpp).
#include "simd/primitives.h"
#include "simd/vec_avx512bw.h"

namespace aalign::simd {

const Primitives& primitives_avx512bw() {
  static constexpr Primitives p{
      .translate = &translate_bytes,
      .squeeze = &squeeze_bytes,
      .popcount_and = &popcount_and_sweep<VecOps<std::int32_t, Avx512BwTag>>,
  };
  return p;
}

}  // namespace aalign::simd
