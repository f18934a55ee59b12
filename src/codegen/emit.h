// C++ emission: turns a KernelSpec into a compilable translation unit that
// instantiates the AAlign kernel templates with the extracted parameters -
// the templated realization of the paper's "rewrite the vector code
// constructs, then link against the vector modules" pipeline.
#pragma once

#include <string>

#include "codegen/sema.h"

namespace aalign::codegen {

struct EmitOptions {
  std::string nspace = "aalign_generated";
  std::string function = "align";
};

// A self-contained .cpp/.h-style source exposing
//   long <ns>::<fn>(std::span<const std::uint8_t> query,
//                   std::span<const std::uint8_t> subject,
//                   aalign::Strategy strategy);
std::string emit_cpp(const KernelSpec& spec, const EmitOptions& opt = {});

// The paper-faithful output mode: fully EXPANDED vector code constructs.
// Emits the striped-iterate (Alg. 2) and striped-scan (Alg. 3) loops as
// concrete source against the vector-module layer (simd/modules.h),
// templated only on the backend Ops - the "re-link per ISA" contract.
// The rewriting the paper performs on the constructs happens textually:
// gap constants are folded into broadcasts, the local/global max operands
// and boundary inits are specialized, and for linear gap systems the
// asterisked statements (vL/vU bookkeeping) are OMITTED from the output,
// exactly as Sec. V-A describes. 32-bit scores.
std::string emit_expanded_kernel(const KernelSpec& spec,
                                 const EmitOptions& opt = {});

}  // namespace aalign::codegen
