// Query striping: the striped index of score::stripe_query, the transpose
// of a query read as `width` rows of `segs` bytes, each byte coded into an
// index lane as it is written. One entry point per backend that has a
// faster form than the scalar loop (today SSE4.1's 16x16 register tiles,
// which every x86 backend above scalar also runs); stripe_fn resolves the
// one to use.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/isa.h"

namespace aalign::simd {

// How a lane stores symbol c: (c * mul + add) truncated to `bytes` bytes
// (1, 2 or 4), little-endian.
struct StripeCode {
  int bytes = 1;
  int mul = 1;
  int add = 0;
};

// out[j*width + l] = code(q[l*segs + j]) for l*segs + j < m, and
// code(pad) for the other cells, for j < segs and l < width
// (m <= segs * width). Returns the largest byte of q[0, m), which the
// caller checks against its alphabet.
using StripeFn = std::uint8_t (*)(const std::uint8_t* q, std::size_t m,
                                  std::size_t segs, std::size_t width,
                                  std::uint8_t pad, StripeCode code,
                                  void* out);

std::uint8_t stripe_scalar(const std::uint8_t* q, std::size_t m,
                           std::size_t segs, std::size_t width,
                           std::uint8_t pad, StripeCode code, void* out);
// Defined only in builds with the SSE4.1 backend (simd/stripe_sse41.cpp);
// reached only through stripe_fn.
std::uint8_t stripe_sse41(const std::uint8_t* q, std::size_t m,
                          std::size_t segs, std::size_t width,
                          std::uint8_t pad, StripeCode code, void* out);

// The SSE4.1 form for every backend from sse41 up when it is compiled in
// and the running CPU supports it, else the scalar loop - never nullptr
// (every form writes the same lanes). Resolved in simd/isa.cpp.
StripeFn stripe_fn(IsaKind isa);

}  // namespace aalign::simd
