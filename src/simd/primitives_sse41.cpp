// The SSE4.1 primitives record. Compiled with the sse4.1 flag set only;
// reached through simd::primitives() behind cpuid (simd/isa.cpp).
#include "simd/primitives.h"
#include "simd/vec_sse41.h"

namespace aalign::simd {

const Primitives& primitives_sse41() {
  static constexpr Primitives p{
      .stripe = &stripe_tiles,
      .popcount_and = &popcount_and_sweep<VecOps<std::int32_t, Sse41Tag>>,
  };
  return p;
}

}  // namespace aalign::simd
