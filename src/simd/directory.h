// The directory checks of a mapped index (store::MappedIndex::open): the
// passes over its per-subject arrays that open makes after hashing them.
// Each is one pass in which every step is a compare folded into an OR,
// with no early exit, so the vector forms keep a whole register of
// entries in flight. Each check has a scalar entry point and one per
// vector backend it has a form for, every form giving the same faults;
// offset_scan_fn and inverse_check_fn resolve the ones to use.
//
// The offset scan runs over a u64 offset array and reports whether any
// entry falls below the one before it and whether any length (the
// difference of two neighbours) grows past the one before it. The residue
// offsets must do neither (they tile the blob, longest first), the id
// offsets must not fall. Lengths are u64 differences, wrapping like the
// scalar definition's.
//
// The inverse check takes a u32 permutation `perm` and a u32 array `inv`
// of n entries each and reports whether perm[inv[o]] == o fails, or
// inv[o] >= n, for some o: when neither does, perm maps onto [0, n), so
// it is a permutation and inv its inverse. The vector form gathers the
// perm[inv[o]] of a register of o at once; it is the AVX2 one on AVX-512
// CPUs too, where a 16-lane gather measured no faster.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/isa.h"

namespace aalign::simd {

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

OffsetFaults offset_scan_scalar(const std::uint64_t* off, std::size_t count);
// Defined only in builds with the AVX2 / AVX-512 backends
// (simd/directory_avx2.cpp, simd/directory_avx512.cpp); reached only
// through offset_scan_fn.
OffsetFaults offset_scan_avx2(const std::uint64_t* off, std::size_t count);
OffsetFaults offset_scan_avx512(const std::uint64_t* off, std::size_t count);

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

InverseFaults inverse_check_scalar(const std::uint32_t* perm,
                                   const std::uint32_t* inv, std::size_t n);
// Defined only in builds with the AVX2 backend (simd/directory_avx2.cpp);
// reached only through inverse_check_fn. A gather's indices are signed
// 32-bit, so for n past 2^31 it runs the scalar steps.
InverseFaults inverse_check_avx2(const std::uint32_t* perm,
                                 const std::uint32_t* inv, std::size_t n);

// The widest form of each check at or below the requested backend that is
// compiled in and that the running CPU supports, else the scalar loop -
// never nullptr. The offset scan has an AVX-512F form (avx512bw and avx512)
// and an AVX2 one; the inverse check has the AVX2 form for avx2 and up.
// Resolved in simd/isa.cpp.
OffsetScanFn offset_scan_fn(IsaKind isa);
InverseCheckFn inverse_check_fn(IsaKind isa);

}  // namespace aalign::simd
