// Extended AVX-512 (BW+VBMI) backend: full 8/16/32-bit lane support on
// 512-bit vectors - the forward-port of the framework to the "incoming
// AVX-512" the paper anticipates. Compiled with the avx512 f/bw/vl/vbmi
// flags only; never dispatched unless cpuid reports VBMI.
#include "core/engine_impl.h"
#include "simd/vec_avx512bw.h"

namespace aalign::core {

const Backend& backend_avx512bw() {
  return make_backend<simd::Avx512BwTag>();
}

}  // namespace aalign::core
