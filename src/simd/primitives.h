// The set-up and filter primitives: one record per ISA, the counterpart of
// core::Backend for the vector code that runs outside the column kernels.
// Each field is one algorithm with one contract; every form of a field
// gives the same result, so which one runs changes only the speed.
//
// The scalar record (simd/isa.cpp) fills every field and is the reference
// the tests compare against. Each vector backend fills its record once, in
// simd/primitives_<isa>.cpp (compiled with that ISA's flags), with the
// forms its vec_<isa>.h has, and leaves the other fields nullptr.
// primitives(isa) merges them: each field comes from the highest ISA at or
// below `isa` that is compiled in, that the running CPU supports and that
// has its own form. Adding a primitive is one field here (with its entry
// in kPrimitiveFields), its scalar form, and one line in each ISA's record
// that has a vector form.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <tuple>

#include "simd/isa.h"

namespace aalign::simd {

// ----------------------------------------------------------- translate
// Byte translation through a 256-entry table, out[i] = table[in[i]]: the
// residue-to-index encode of score::Alphabet. Own forms: scalar and
// AVX-512 VBMI's two-register byte permute.
using TranslateFn = void (*)(const std::uint8_t* table, const char* in,
                             std::uint8_t* out, std::size_t n);

// ------------------------------------------------------------- squeeze
// FASTA residue squeeze: copies the bytes of a record body that are
// neither whitespace nor part of a ';' comment line, in order - the whole
// of seq::parse_fasta's per-record work. Whitespace is ' ' and '\t' '\n'
// '\v' '\f' '\r' (std::isspace in the "C" locale). A comment line starts
// with ';' at src[0] or right after a '\n' and runs to the next '\n'.
// Writes the kept bytes of src[0, n) to the front of dst, which holds n
// bytes (those past the count are left unspecified), and returns their
// count. Own forms: scalar (SWAR, 8 bytes per step: a word with no byte
// below '!' and no ';' is stored whole; in any other, exact byte masks
// pick the dropped bytes, which are shifted out one at a time; the tail is
// branch-free) and AVX-512 VBMI's byte permute.
using SqueezeFn = std::size_t (*)(const char* src, std::size_t n, char* dst);

// -------------------------------------------------------------- stripe
// Query striping: the striped index of score::stripe_query, the transpose
// of a query read as `width` rows of `segs` bytes, each byte coded into an
// index lane as it is written. Own forms: scalar and SSE4.1's 16x16
// register tiles, which every x86 backend above it also runs.

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

// ----------------------------------------------------------- fnv_lanes
// The lane update of the index checksum (store::Checksum): FNV-1a on
// kFnvLanes independent 64-bit lanes, word k of every kFnvStride-byte
// stride feeding lane k. The FNV prime is 2^40 + 0x1b3, so a lane step
// x -> (x ^ w) * prime is an XOR, a 40-bit shift and a multiply by 0x1b3,
// which splits into two 32x32->64 multiplies of the word's halves: AVX2
// and AVX-512F run it with no 64-bit multiply instruction, keeping the 32
// independent chains of a stride in flight. Own forms: scalar, AVX2 and
// AVX-512F (which avx512bw also runs).
inline constexpr std::uint64_t kFnvPrime = (std::uint64_t{1} << 40) + 0x1b3;
inline constexpr std::size_t kFnvLanes = 32;
inline constexpr std::size_t kFnvStride = kFnvLanes * sizeof(std::uint64_t);

// lanes[k] = (lanes[k] ^ word k of the stride) * kFnvPrime for each of the
// `strides` kFnvStride-byte strides at `data` (little-endian words, no
// alignment required), in order.
using FnvLanesFn = void (*)(std::uint64_t* lanes, const void* data,
                            std::size_t strides);

// ------------------------------------------ offset_scan, inverse_check
// The directory checks of a mapped index (store::MappedIndex::open): the
// passes over its per-subject arrays that open makes after hashing them.
// Each is one pass in which every step is a compare folded into an OR,
// with no early exit, so the vector forms keep a whole register of
// entries in flight.
//
// The offset scan runs over a u64 offset array and reports whether any
// entry falls below the one before it and whether any length (the
// difference of two neighbours) grows past the one before it. The residue
// offsets must do neither (they tile the blob, longest first), the id
// offsets must not fall. Lengths are u64 differences, wrapping like the
// scalar definition's. Own forms: scalar, AVX2 and AVX-512F (which
// avx512bw also runs).
struct OffsetFaults {
  bool fall = false;    // off[i] < off[i - 1] for some i >= 1
  bool growth = false;  // off[i] - off[i - 1] > off[i - 1] - off[i - 2]
                        // for some i >= 2 (u64 differences)
};

// The faults of off[0, count); none when count < 2.
using OffsetScanFn = OffsetFaults (*)(const std::uint64_t* off,
                                      std::size_t count);

// Folds entries [from, to) of the scan into `f`, 1 <= from: the scalar
// definition, and the ragged ends of each vector form.
inline void offset_scan_steps(const std::uint64_t* off, std::size_t from,
                              std::size_t to, OffsetFaults& f) {
  if (from >= to) return;
  // No length exceeds the one "before" entry 1.
  std::uint64_t prev =
      from >= 2 ? off[from - 1] - off[from - 2] : ~std::uint64_t{0};
  for (std::size_t i = from; i < to; ++i) {
    const std::uint64_t len = off[i] - off[i - 1];
    f.fall |= off[i] < off[i - 1];
    f.growth |= len > prev;
    prev = len;
  }
}

// The inverse check takes a u32 permutation `perm` and a u32 array `inv`
// of n entries each and reports whether perm[inv[o]] == o fails, or
// inv[o] >= n, for some o: when neither does, perm maps onto [0, n), so
// it is a permutation and inv its inverse. Own forms: scalar and the AVX2
// gather of the perm[inv[o]] of a register of o at once, which the
// AVX-512 backends also run (a 16-lane gather measured no faster). A
// gather's indices are signed 32-bit, so for n past 2^31 it runs the
// scalar steps.
struct InverseFaults {
  bool bad = false;    // inv[o] >= n or perm[inv[o]] != o for some o
  bool moved = false;  // inv[o] != o for some o
};

// The faults of perm[0, n) and inv[0, n).
using InverseCheckFn = InverseFaults (*)(const std::uint32_t* perm,
                                         const std::uint32_t* inv,
                                         std::size_t n);

// Folds original indices [from, n) of the check into `f`: the scalar
// definition, and the tail of each vector form.
inline void inverse_check_steps(const std::uint32_t* perm,
                                const std::uint32_t* inv, std::size_t from,
                                std::size_t n, InverseFaults& f) {
  for (std::size_t o = from; o < n; ++o) {
    const std::uint32_t pos = inv[o];
    f.bad |= pos >= n;
    f.bad |= perm[pos < n ? pos : 0] != o;
    f.moved |= pos != o;
  }
}

// -------------------------------------------------------- popcount_and
// The signature filter's intersection (filter::SignatureIndex::scan): the
// popcount of the word-wise AND of two signature slabs. Pointers must be
// 64-byte aligned; `words` counts int32 words. The SignatureIndex geometry
// (bits % 512 == 0) guarantees both, so no form needs a tail loop - but
// each still carries one. Own forms: every backend's.
using PopcountAndFn = std::uint64_t (*)(const std::int32_t* a,
                                        const std::int32_t* b,
                                        std::size_t words);

// Every form: a strided VecOps::popcount_and sweep, instantiated by each
// backend's record over its own VecOps<std::int32_t, Tag> (so no
// intrinsics appear outside simd/vec_*.h).
template <class Ops>
inline std::uint64_t popcount_and_sweep(const std::int32_t* a,
                                        const std::int32_t* b,
                                        std::size_t words) {
  constexpr std::size_t kW = static_cast<std::size_t>(Ops::kWidth);
  std::uint64_t n = 0;
  std::size_t i = 0;
  for (; i + kW <= words; i += kW)
    n += Ops::popcount_and(Ops::load(a + i), Ops::load(b + i));
  for (; i < words; ++i)
    n += static_cast<std::uint64_t>(std::popcount(
        static_cast<std::uint32_t>(a[i]) & static_cast<std::uint32_t>(b[i])));
  return n;
}

// ------------------------------------------------------------ the record

struct Primitives {
  TranslateFn translate = nullptr;
  SqueezeFn squeeze = nullptr;
  StripeFn stripe = nullptr;
  FnvLanesFn fnv_lanes = nullptr;
  OffsetScanFn offset_scan = nullptr;
  InverseCheckFn inverse_check = nullptr;
  PopcountAndFn popcount_and = nullptr;
};

// Every field, for the code that walks the record (the resolver's merge
// and the tests).
inline constexpr std::tuple kPrimitiveFields{
    &Primitives::translate,   &Primitives::squeeze,
    &Primitives::stripe,      &Primitives::fnv_lanes,
    &Primitives::offset_scan, &Primitives::inverse_check,
    &Primitives::popcount_and};
static_assert(std::tuple_size_v<decltype(kPrimitiveFields)> *
                      sizeof(void (*)()) ==
                  sizeof(Primitives),
              "kPrimitiveFields lists every field of Primitives");

// The scalar forms (simd/isa.cpp): the scalar record, and the reference
// implementations the tests compare the vector forms against.
void translate_scalar(const std::uint8_t* table, const char* in,
                      std::uint8_t* out, std::size_t n);
std::size_t squeeze_scalar(const char* src, std::size_t n, char* dst);
std::uint8_t stripe_scalar(const std::uint8_t* q, std::size_t m,
                           std::size_t segs, std::size_t width,
                           std::uint8_t pad, StripeCode code, void* out);
void fnv_lanes_scalar(std::uint64_t* lanes, const void* data,
                      std::size_t strides);
OffsetFaults offset_scan_scalar(const std::uint64_t* off, std::size_t count);
InverseFaults inverse_check_scalar(const std::uint32_t* perm,
                                   const std::uint32_t* inv, std::size_t n);
std::uint64_t popcount_and_scalar(const std::int32_t* a,
                                  const std::int32_t* b, std::size_t words);

// Each vector backend's own record, defined only in builds that compile
// the backend in; reached only through own_primitives, behind its CPU
// check.
const Primitives& primitives_sse41();
const Primitives& primitives_avx2();
const Primitives& primitives_avx512();
const Primitives& primitives_avx512bw();

// The record `isa`'s own TU fills (every field for scalar; nullptr fields
// where the backend has no form), or nullptr unless the backend is
// available (compiled in and supported by the running CPU).
const Primitives* own_primitives(IsaKind isa);

// The merged record for `isa`: every field filled, each from the highest
// ISA at or below `isa` that is compiled in, that the running CPU supports
// and that has its own form (scalar at the bottom). Built once.
const Primitives& primitives(IsaKind isa);
// primitives(best_available_isa()), resolved once: what the set-up paths
// call.
const Primitives& primitives();

}  // namespace aalign::simd
