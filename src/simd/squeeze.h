// FASTA residue squeeze: copies the bytes of a record body that are
// neither whitespace nor part of a ';' comment line, in order - the whole
// of seq::parse_fasta's per-record work. Whitespace is ' ' and '\t' '\n'
// '\v' '\f' '\r' (std::isspace in the "C" locale). A comment line starts
// with ';' at src[0] or right after a '\n' and runs to the next '\n'.
// One entry point per backend that has a faster form than the scalar
// loop (today AVX-512 VBMI's byte permute); squeeze_fn resolves the one to
// use.
#pragma once

#include <cstddef>

#include "simd/isa.h"

namespace aalign::simd {

// Writes the kept bytes of src[0, n) to the front of dst, which holds n
// bytes (those past the count are left unspecified), and returns their
// count.
using SqueezeFn = std::size_t (*)(const char* src, std::size_t n, char* dst);

// SWAR, 8 bytes per step: a word with no byte below '!' and no ';' (most
// of a residue line) is stored whole; in any other, exact byte masks
// (the comment ones by one subtraction) pick the dropped bytes, which are
// shifted out one at a time before the word is stored. The tail is
// branch-free, byte by byte.
std::size_t squeeze_scalar(const char* src, std::size_t n, char* dst);
// Defined only in builds with the AVX-512BW backend
// (simd/squeeze_avx512bw.cpp); reached only through squeeze_fn.
std::size_t squeeze_avx512bw(const char* src, std::size_t n, char* dst);

// The requested backend's squeeze when it is compiled in, has one and the
// running CPU supports it, else the scalar loop - never nullptr (every
// form writes the same bytes). Resolved in simd/isa.cpp.
SqueezeFn squeeze_fn(IsaKind isa);

}  // namespace aalign::simd
