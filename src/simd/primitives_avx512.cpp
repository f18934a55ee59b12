// The AVX-512F primitives record. Compiled with the avx512 flag set only;
// reached through simd::primitives() behind cpuid (simd/isa.cpp).
#include "simd/primitives.h"
#include "simd/vec_avx512.h"

namespace aalign::simd {

const Primitives& primitives_avx512() {
  static constexpr Primitives p{
      .fnv_lanes = &fnv_lanes_512,
      .offset_scan = &offset_scan_512,
      .popcount_and = &popcount_and_sweep<VecOps<std::int32_t, Avx512Tag>>,
  };
  return p;
}

}  // namespace aalign::simd
