// SSE4.1 backend. Compiled with -msse4.1 only; never dispatched unless
// cpuid reports SSE4.1.
#include "core/engine_impl.h"
#include "simd/vec_sse41.h"

namespace aalign::core {

const Backend& backend_sse41() { return make_backend<simd::Sse41Tag>(); }

}  // namespace aalign::core
