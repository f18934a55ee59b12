// SSE4.1 query striping in 16x16 register tiles. Compiled with the sse4.1
// flag set only; dispatched behind cpuid (simd/isa.cpp).
#include "simd/stripe.h"
#include "simd/vec_sse41.h"

namespace aalign::simd {

std::uint8_t stripe_sse41(const std::uint8_t* q, std::size_t m,
                          std::size_t segs, std::size_t width,
                          std::uint8_t pad, StripeCode code, void* out) {
  return stripe_tiles(q, m, segs, width, pad, code, out);
}

}  // namespace aalign::simd
