// The AVX2 primitives record. Compiled with the avx2 flag set only;
// reached through simd::primitives() behind cpuid (simd/isa.cpp).
#include "simd/primitives.h"
#include "simd/vec_avx2.h"

namespace aalign::simd {

const Primitives& primitives_avx2() {
  static constexpr Primitives p{
      .fnv_lanes = &fnv_lanes_256,
      .offset_scan = &offset_scan_256,
      .inverse_check = &inverse_check_256,
      .popcount_and = &popcount_and_sweep<VecOps<std::int32_t, Avx2Tag>>,
  };
  return p;
}

}  // namespace aalign::simd
