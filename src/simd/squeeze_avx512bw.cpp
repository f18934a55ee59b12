// AVX-512 BW+VBMI FASTA residue squeeze. Compiled with the avx512bw flag
// set only; dispatched behind cpuid (simd/isa.cpp).
#include "simd/squeeze.h"
#include "simd/vec_avx512bw.h"

namespace aalign::simd {

std::size_t squeeze_avx512bw(const char* src, std::size_t n, char* dst) {
  return squeeze_bytes(src, n, dst);
}

}  // namespace aalign::simd
