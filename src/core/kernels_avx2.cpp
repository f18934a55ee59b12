// AVX2 backend (the paper's "CPU"/Haswell target). Compiled with -mavx2
// only; never dispatched unless cpuid reports AVX2.
#include "core/engine_impl.h"
#include "simd/vec_avx2.h"

namespace aalign::core {

const Backend& backend_avx2() { return make_backend<simd::Avx2Tag>(); }

}  // namespace aalign::core
