// AVX2 directory checks. Compiled with the avx2 flag set only;
// dispatched behind cpuid (simd/isa.cpp).
#include "simd/directory.h"
#include "simd/vec_avx2.h"

namespace aalign::simd {

OffsetFaults offset_scan_avx2(const std::uint64_t* off, std::size_t count) {
  return offset_scan_256(off, count);
}

InverseFaults inverse_check_avx2(const std::uint32_t* perm,
                                  const std::uint32_t* inv, std::size_t n) {
  return inverse_check_256(perm, inv, n);
}

}  // namespace aalign::simd
