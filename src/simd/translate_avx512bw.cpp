// AVX-512 BW+VBMI byte translation. Compiled with the avx512bw flag set
// only; dispatched behind cpuid (simd/isa.cpp).
#include "simd/translate.h"
#include "simd/vec_avx512bw.h"

namespace aalign::simd {

void translate_avx512bw(const std::uint8_t* table, const char* in,
                        std::uint8_t* out, std::size_t n) {
  translate_bytes(table, in, out, n);
}

}  // namespace aalign::simd
