// AVX2 checksum lane update. Compiled with the avx2 flag set only;
// dispatched behind cpuid (simd/isa.cpp).
#include "simd/fnv_lanes.h"
#include "simd/vec_avx2.h"

namespace aalign::simd {

void fnv_lanes_avx2(std::uint64_t* lanes, const void* data,
                    std::size_t strides) {
  fnv_lanes_256(lanes, data, strides);
}

}  // namespace aalign::simd
