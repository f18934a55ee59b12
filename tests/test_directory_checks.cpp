// Differential test of the index's directory checks (the `offset_scan` and
// `inverse_check` primitives, simd/primitives.h): every form of each check
// this binary holds and the CPU runs reports the faults of a reference loop
// written from the definition. The offset scan runs over arrays of 0-70
// entries - well formed, with one planted fall or one planted growth at
// every index, with values around 2^63 and near 2^64 (where a signed compare
// or a wrapping difference goes wrong), and random. The inverse check runs
// over permutations of 0-70 entries and their inverses - intact, and with
// one inverse entry past the end, at or above 2^31 (a gather's signed
// index), naming another position, or swapped with another, at every index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "simd/primitives.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

constexpr std::size_t kMaxCount = 70;

// fall: some entry below the one before it; growth: some length (u64
// difference of neighbours) above the one before it.
simd::OffsetFaults reference(const std::vector<std::uint64_t>& off) {
  simd::OffsetFaults f;
  for (std::size_t i = 1; i < off.size(); ++i) {
    if (off[i] < off[i - 1]) f.fall = true;
  }
  for (std::size_t i = 2; i < off.size(); ++i) {
    if (off[i] - off[i - 1] > off[i - 1] - off[i - 2]) f.growth = true;
  }
  return f;
}

// Every form reports the reference's faults on `off`.
void expect_forms_agree(const std::vector<std::uint64_t>& off) {
  const simd::OffsetFaults want = reference(off);
  for (const auto& p : test::distinct_forms(&simd::Primitives::offset_scan)) {
    const simd::OffsetFaults got = p.fn(off.data(), off.size());
    EXPECT_EQ(got.fall, want.fall) << p.name << ", " << off.size()
                                   << " entries";
    EXPECT_EQ(got.growth, want.growth) << p.name << ", " << off.size()
                                       << " entries";
  }
}

// `count` offsets from `base`, every length `len`: no fault.
std::vector<std::uint64_t> even(std::size_t count, std::uint64_t base,
                                std::uint64_t len) {
  std::vector<std::uint64_t> off(count);
  for (std::size_t i = 0; i < count; ++i) off[i] = base + i * len;
  return off;
}

// The bases the planted arrays start from: 0, across 2^63, and near 2^64
// (the last array ends at 2^64 - 1, so no entry wraps).
std::vector<std::uint64_t> bases(std::size_t count, std::uint64_t len) {
  const std::uint64_t span = count * len;
  return {0, (std::uint64_t{1} << 63) - span / 2, ~std::uint64_t{0} - span};
}

}  // namespace

TEST(OffsetScan, ScalarFormIsAlwaysAvailable) {
  EXPECT_EQ(simd::primitives(simd::IsaKind::Scalar).offset_scan,
            &simd::offset_scan_scalar);
  EXPECT_EQ(simd::primitives(simd::IsaKind::Scalar).inverse_check,
            &simd::inverse_check_scalar);
}

TEST(OffsetScan, WellFormedArraysHaveNoFault) {
  std::mt19937_64 rng(11);
  for (std::size_t count = 0; count <= kMaxCount; ++count) {
    for (const std::uint64_t base : bases(count, 5)) {
      expect_forms_agree(even(count, base, 5));
    }
    // Non-increasing random lengths, some zero.
    std::vector<std::uint64_t> off(count);
    std::uint64_t len = 1000;
    for (std::size_t i = 1; i < count; ++i) {
      len -= std::min<std::uint64_t>(len, rng() % 40);
      off[i] = off[i - 1] + len;
    }
    ASSERT_FALSE(reference(off).fall || reference(off).growth);
    expect_forms_agree(off);
  }
}

// Each planted fault at each index, from each base: a fall (every entry
// before i raised past entry i; length i wraps, so it grows too) and,
// separately, a growth (length i alone one longer).
TEST(OffsetScan, OnePlantedFaultAtEveryIndex) {
  constexpr std::uint64_t kLen = 5;
  for (std::size_t count = 2; count <= kMaxCount; ++count) {
    for (const std::uint64_t base : bases(count, kLen)) {
      for (std::size_t i = 1; i < count; ++i) {
        SCOPED_TRACE(::testing::Message()
                     << count << " entries, base " << base << ", index " << i);
        auto fall = even(count, base, kLen);
        for (std::size_t j = 0; j < i; ++j) fall[j] += kLen + 1;
        ASSERT_TRUE(reference(fall).fall);
        expect_forms_agree(fall);

        if (i < 2) continue;  // length 1 has none before it
        // Length i alone becomes kLen + 1: the entries from i on move up
        // by one, or, where that would run past 2^64, those before i down.
        auto growth = even(count, base, kLen);
        if (base == 0) {
          for (std::size_t j = i; j < count; ++j) growth[j] += 1;
        } else {
          for (std::size_t j = 0; j < i; ++j) growth[j] -= 1;
        }
        const simd::OffsetFaults want = reference(growth);
        ASSERT_TRUE(want.growth);
        ASSERT_FALSE(want.fall);
        expect_forms_agree(growth);
      }
    }
  }
}

// Random entries (almost every array falls) and random lengths around a
// wrapping base, at every count.
TEST(OffsetScan, RandomArraysMatchTheReference) {
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    for (std::size_t count = 0; count <= kMaxCount; ++count) {
      std::vector<std::uint64_t> off(count);
      for (auto& v : off) v = rng();
      expect_forms_agree(off);
      // Small random steps from just below 2^64: the entries wrap past it
      // (a fall) at a random index, and lengths vary both ways.
      std::uint64_t at = ~std::uint64_t{0} - rng() % (count * 8 + 1);
      for (auto& v : off) {
        v = at;
        at += rng() % 16;
      }
      expect_forms_agree(off);
    }
  }
}

namespace {

// bad: some inv[o] at or past n, or whose perm entry is not o; moved: some
// inv[o] other than o.
simd::InverseFaults reference(const std::vector<std::uint32_t>& perm,
                              const std::vector<std::uint32_t>& inv) {
  simd::InverseFaults f;
  for (std::size_t o = 0; o < inv.size(); ++o) {
    if (inv[o] >= inv.size() || perm[inv[o]] != o) f.bad = true;
    if (inv[o] != o) f.moved = true;
  }
  return f;
}

void expect_forms_agree(const std::vector<std::uint32_t>& perm,
                        const std::vector<std::uint32_t>& inv) {
  const simd::InverseFaults want = reference(perm, inv);
  for (const auto& p : test::distinct_forms(&simd::Primitives::inverse_check)) {
    const simd::InverseFaults got = p.fn(perm.data(), inv.data(), inv.size());
    EXPECT_EQ(got.bad, want.bad) << p.name << ", " << inv.size()
                                 << " entries";
    EXPECT_EQ(got.moved, want.moved) << p.name << ", " << inv.size()
                                     << " entries";
  }
}

struct Pair {
  std::vector<std::uint32_t> perm;
  std::vector<std::uint32_t> inv;
};

// A random permutation of [0, n) and its inverse.
Pair shuffled(std::size_t n, std::mt19937_64& rng) {
  Pair p{std::vector<std::uint32_t>(n), std::vector<std::uint32_t>(n)};
  std::iota(p.perm.begin(), p.perm.end(), 0u);
  std::shuffle(p.perm.begin(), p.perm.end(), rng);
  for (std::size_t i = 0; i < n; ++i) {
    p.inv[p.perm[i]] = static_cast<std::uint32_t>(i);
  }
  return p;
}

}  // namespace

// A random permutation of each size and the identity, with their inverses:
// never bad, moved unless the identity (or too small to move).
TEST(InverseCheck, PermutationsAndTheirInversesPass) {
  std::mt19937_64 rng(31);
  for (std::size_t n = 0; n <= kMaxCount; ++n) {
    std::vector<std::uint32_t> identity(n);
    std::iota(identity.begin(), identity.end(), 0u);
    expect_forms_agree(identity, identity);
    const Pair p = shuffled(n, rng);
    ASSERT_FALSE(reference(p.perm, p.inv).bad);
    expect_forms_agree(p.perm, p.inv);
  }
}

// One corrupt inverse entry at every index of every size: past the end,
// at 2^31 and at 2^32 - 1 (negative as a gather index), naming the next
// position, and swapped with the next entry.
TEST(InverseCheck, OnePlantedFaultAtEveryIndex) {
  std::mt19937_64 rng(37);
  for (std::size_t n = 1; n <= kMaxCount; ++n) {
    const auto [perm, inv] = shuffled(n, rng);
    const auto n32 = static_cast<std::uint32_t>(n);
    for (std::size_t o = 0; o < n; ++o) {
      SCOPED_TRACE(::testing::Message() << n << " entries, index " << o);
      for (const std::uint32_t v :
           {n32, n32 + 1, std::uint32_t{1} << 31, ~std::uint32_t{0},
            (inv[o] + 1) % n32}) {
        auto bad = inv;
        bad[o] = v;
        if (bad == inv) continue;  // one entry: the next position is itself
        ASSERT_TRUE(reference(perm, bad).bad);
        expect_forms_agree(perm, bad);
      }
      if (n < 2) continue;
      auto swapped = inv;
      std::swap(swapped[o], swapped[(o + 1) % n]);
      ASSERT_TRUE(reference(perm, swapped).bad);
      expect_forms_agree(perm, swapped);
    }
  }
}
