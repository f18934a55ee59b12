// Scalar backend (portable fallback / reference).
#include "core/engine_impl.h"
#include "simd/vec_scalar.h"

namespace aalign::core {

const Backend& backend_scalar() { return make_backend<simd::ScalarTag>(); }

}  // namespace aalign::core
