// AVX-512F checksum lane update. Compiled with the avx512 flag set only;
// dispatched behind cpuid (simd/isa.cpp).
#include "simd/fnv_lanes.h"
#include "simd/vec_avx512.h"

namespace aalign::simd {

void fnv_lanes_avx512(std::uint64_t* lanes, const void* data,
                      std::size_t strides) {
  fnv_lanes_512(lanes, data, strides);
}

}  // namespace aalign::simd
