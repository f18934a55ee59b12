// The lane update of the index checksum (store::Checksum): FNV-1a on
// kFnvLanes independent 64-bit lanes, word k of every kFnvStride-byte
// stride feeding lane k. One algorithm with one entry point per backend,
// every form giving the same lanes; fnv_lanes_fn resolves the one to use.
//
// The FNV prime is 2^40 + 0x1b3, so a lane step x -> (x ^ w) * prime is an
// XOR, a 40-bit shift and a multiply by 0x1b3, which splits into two
// 32x32->64 multiplies of the word's halves: AVX2 and AVX-512F run it with
// no 64-bit multiply instruction. The 32 chains are independent, so the
// vector forms keep the whole stride in flight.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/isa.h"

namespace aalign::simd {

inline constexpr std::uint64_t kFnvPrime = (std::uint64_t{1} << 40) + 0x1b3;
inline constexpr std::size_t kFnvLanes = 32;
inline constexpr std::size_t kFnvStride = kFnvLanes * sizeof(std::uint64_t);

// lanes[k] = (lanes[k] ^ word k of the stride) * kFnvPrime for each of the
// `strides` kFnvStride-byte strides at `data` (little-endian words, no
// alignment required), in order.
using FnvLanesFn = void (*)(std::uint64_t* lanes, const void* data,
                            std::size_t strides);

void fnv_lanes_scalar(std::uint64_t* lanes, const void* data,
                      std::size_t strides);
// Defined only in builds with the AVX2 / AVX-512 backends
// (simd/fnv_lanes_avx2.cpp, simd/fnv_lanes_avx512.cpp); reached only
// through fnv_lanes_fn.
void fnv_lanes_avx2(std::uint64_t* lanes, const void* data,
                    std::size_t strides);
void fnv_lanes_avx512(std::uint64_t* lanes, const void* data,
                      std::size_t strides);

// The widest form at or below the requested backend that is compiled in
// and that the running CPU supports (avx512bw and avx512 take the AVX-512F
// form, avx2 the AVX2 one), else the scalar loop - never nullptr.
// Resolved in simd/isa.cpp, the file that knows which backends this
// binary holds.
FnvLanesFn fnv_lanes_fn(IsaKind isa);

}  // namespace aalign::simd
