// Differential test of the index checksum's lane update across backends
// (the `fnv_lanes` primitive, simd/primitives.h): every form this binary
// holds and the CPU runs gives the digest of the format's definition
// (store/format.h), for every length 0-2100 at every start offset 0-63, in
// one call and in stride-multiple windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "simd/primitives.h"
#include "store/format.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

constexpr std::size_t kMaxLength = 2100;
constexpr std::size_t kMaxOffset = 63;

// The version-4 digest written out from its definition: word k of every
// 256-byte stride (assembled byte by byte, little-endian) feeds lane k,
// lane k starts at the offset basis XOR k, a ragged tail continues lane 0
// through fnv1a64, and fnv1a64 folds the lanes.
std::uint64_t reference_digest(const std::uint8_t* p, std::size_t n) {
  std::uint64_t lane[32];
  for (std::size_t k = 0; k < 32; ++k) lane[k] = store::kFnvOffsetBasis ^ k;
  std::size_t i = 0;
  for (; i + 256 <= n; i += 256) {
    for (std::size_t k = 0; k < 32; ++k) {
      std::uint64_t w = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        w |= std::uint64_t{p[i + 8 * k + b]} << (8 * b);
      }
      lane[k] = (lane[k] ^ w) * ((std::uint64_t{1} << 40) + 0x1b3);
    }
  }
  if (i < n) lane[0] = store::fnv1a64(p + i, n - i, lane[0]);
  return store::fnv1a64(lane, sizeof lane);
}

// The digest with `fn` as the lane update, the rest as store::Checksum.
std::uint64_t digest_with(simd::FnvLanesFn fn, const std::uint8_t* p,
                          std::size_t n) {
  std::uint64_t lane[simd::kFnvLanes];
  for (std::size_t k = 0; k < simd::kFnvLanes; ++k) {
    lane[k] = store::kFnvOffsetBasis ^ k;
  }
  const std::size_t strides = n / simd::kFnvStride;
  fn(lane, p, strides);
  const std::size_t i = strides * simd::kFnvStride;
  if (i < n) lane[0] = store::fnv1a64(p + i, n - i, lane[0]);
  return store::fnv1a64(lane, sizeof lane);
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

// Scalar and SSE4.1 take the scalar loop; a backend this binary holds and
// the CPU runs takes its own vector form, avx512bw sharing avx512's.
TEST(ChecksumPaths, DispatchPicksTheWidestForm) {
  using simd::IsaKind;
  const simd::FnvLanesFn scalar = &simd::fnv_lanes_scalar;
  EXPECT_EQ(simd::primitives(IsaKind::Scalar).fnv_lanes, scalar);
  EXPECT_EQ(simd::primitives(IsaKind::Sse41).fnv_lanes, scalar);
  const simd::FnvLanesFn avx2 = simd::primitives(IsaKind::Avx2).fnv_lanes;
  EXPECT_EQ(avx2 != scalar, simd::isa_available(IsaKind::Avx2));
  const simd::FnvLanesFn avx512 = simd::primitives(IsaKind::Avx512).fnv_lanes;
  if (simd::isa_available(IsaKind::Avx512)) {
    EXPECT_NE(avx512, scalar);
    EXPECT_NE(avx512, avx2);
    EXPECT_EQ(simd::primitives(IsaKind::Avx512Bw).fnv_lanes, avx512);
  }
}

// Every path, at every length and start offset, gives the defined digest;
// so does store::checksum, and so does store::Checksum fed in windows of
// one to three whole strides, the last one ragged - the rule the loader's
// cold-section windows follow.
TEST(ChecksumPaths, EveryPathGivesTheDefinedDigest) {
  const auto paths = test::distinct_forms(&simd::Primitives::fnv_lanes);
  for (const auto& path : paths) RecordProperty("path_" + path.name, 1);
  const auto bytes = random_bytes(kMaxLength + kMaxOffset, 29);
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      const std::uint8_t* p = bytes.data() + off;
      const std::uint64_t want = reference_digest(p, n);
      ASSERT_EQ(store::checksum(p, n), want)
          << "store::checksum, length " << n << " offset " << off;
      for (const auto& path : paths) {
        ASSERT_EQ(digest_with(path.fn, p, n), want)
            << path.name << ", length " << n << " offset " << off;
      }
      const std::size_t window = (1 + n % 3) * store::kChecksumStride;
      store::Checksum h;
      for (std::size_t pos = 0; pos < n; pos += window) {
        h.update(p + pos, std::min(window, n - pos));
      }
      ASSERT_EQ(h.digest(), want)
          << "window " << window << ", length " << n << " offset " << off;
    }
  }
}

}  // namespace
