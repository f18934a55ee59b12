// AVX-512F offset scan. Compiled with the avx512 flag set only;
// dispatched behind cpuid (simd/isa.cpp).
#include "simd/directory.h"
#include "simd/vec_avx512.h"

namespace aalign::simd {

OffsetFaults offset_scan_avx512(const std::uint64_t* off, std::size_t count) {
  return offset_scan_512(off, count);
}

}  // namespace aalign::simd
