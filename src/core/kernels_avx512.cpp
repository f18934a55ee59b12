// AVX-512 backend: the stand-in for the paper's IMCI/Knights-Corner "MIC"
// target. vec_avx512.h defines int32 lanes only, matching IMCI's integer
// support (Sec. II-A), so the record has no int8/int16 engines. Compiled
// with -mavx512f/bw/vl only; never dispatched unless cpuid reports those
// features.
#include "core/engine_impl.h"
#include "simd/vec_avx512.h"

namespace aalign::core {

const Backend& backend_avx512() { return make_backend<simd::Avx512Tag>(); }

}  // namespace aalign::core
