// Byte translation through a 256-entry table, out[i] = table[in[i]]: the
// residue-to-index encode of score::Alphabet. One entry point per backend
// that has a faster form than the scalar loop (today AVX-512 VBMI's
// two-register byte permute); translate_fn resolves the one to use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/isa.h"

namespace aalign::simd {

using TranslateFn = void (*)(const std::uint8_t* table, const char* in,
                             std::uint8_t* out, std::size_t n);

void translate_scalar(const std::uint8_t* table, const char* in,
                      std::uint8_t* out, std::size_t n);
// Defined only in builds with the AVX-512BW backend
// (simd/translate_avx512bw.cpp); reached only through translate_fn.
void translate_avx512bw(const std::uint8_t* table, const char* in,
                        std::uint8_t* out, std::size_t n);

// The requested backend's translate when it is compiled in, has one and
// the running CPU supports it, else the scalar loop - never nullptr (every
// form writes the same bytes). Resolved in simd/isa.cpp, the file that
// knows which backends this binary holds.
TranslateFn translate_fn(IsaKind isa);

}  // namespace aalign::simd
