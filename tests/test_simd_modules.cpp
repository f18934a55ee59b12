// Unit and property tests for the vector-module layer (paper Table I):
// every backend x type combination is checked against scalar semantics,
// and wgt_max_scan is checked against its logical-order reference oracle.
//
// This TU is compiled with all ISA flags; each test guards execution with
// a runtime cpuid check and GTEST_SKIP()s on unsupported hardware.
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <random>
#include <type_traits>
#include <vector>

#include "simd/modules.h"
#include "simd/vec_avx2.h"
#include "simd/vec_avx512.h"
#include "simd/vec_avx512bw.h"
#include "simd/vec_scalar.h"
#include "simd/vec_sse41.h"
#include "test_helpers.h"
#include "util/aligned_buffer.h"
#include "util/saturate.h"

using namespace aalign;
using namespace aalign::simd;

namespace {

template <class Ops>
bool supported() {
  return isa_available(IsaKind::Scalar);  // specialized below per tag
}

template <class T, class Isa>
bool ops_supported(VecOps<T, Isa>*) {
  return isa_available(isa_kind<Isa>());
}

template <class Ops>
std::vector<typename Ops::value_type> random_values(std::mt19937_64& rng,
                                                    std::size_t count,
                                                    bool full_range) {
  using T = typename Ops::value_type;
  const long lo =
      full_range ? std::numeric_limits<T>::min() : neg_inf<T>() / 2;
  const long hi = full_range ? std::numeric_limits<T>::max() : 1000;
  std::uniform_int_distribution<long> d(lo, std::min<long>(hi, 30000));
  std::vector<T> v(count);
  for (auto& x : v) x = static_cast<T>(d(rng));
  return v;
}

template <class Ops>
void primitive_roundtrip_and_arith() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(42);

  for (int iter = 0; iter < 50; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    const auto b = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W], bbuf[W], out[W];
    std::copy(a.begin(), a.end(), abuf);
    std::copy(b.begin(), b.end(), bbuf);

    const auto va = Ops::load(abuf);
    const auto vb = Ops::load(bbuf);

    // load/store roundtrip
    Ops::store(out, va);
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], a[l]);

    // adds matches scalar saturating semantics
    Ops::store(out, Ops::adds(va, vb));
    for (int l = 0; l < W; ++l)
      ASSERT_EQ(out[l], util::sat_add(a[l], b[l])) << "lane " << l;

    // subs
    Ops::store(out, Ops::subs(va, vb));
    for (int l = 0; l < W; ++l)
      ASSERT_EQ(out[l], util::sat_sub(a[l], b[l])) << "lane " << l;

    // max / min
    Ops::store(out, Ops::max(va, vb));
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], std::max(a[l], b[l]));
    Ops::store(out, Ops::min(va, vb));
    for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], std::min(a[l], b[l]));

    // any_gt
    bool expect = false;
    for (int l = 0; l < W; ++l) expect = expect || (a[l] > b[l]);
    ASSERT_EQ(Ops::any_gt(va, vb), expect);
  }
}

template <class Ops>
void shift_insert_semantics() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(7);

  for (int iter = 0; iter < 50; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W], out[W];
    std::copy(a.begin(), a.end(), abuf);
    const T fill = static_cast<T>(iter - 25);

    Ops::store(out, M::rshift_x_fill(Ops::load(abuf), 1, fill));
    ASSERT_EQ(out[0], fill);
    for (int l = 1; l < W; ++l) ASSERT_EQ(out[l], a[l - 1]) << "lane " << l;

    // Generic n-lane shift agrees for every n.
    for (int n = 1; n < W; ++n) {
      Ops::store(out, M::rshift_x_fill(Ops::load(abuf), n, fill));
      for (int l = 0; l < W; ++l) {
        const T expect = l < n ? fill : a[l - n];
        ASSERT_EQ(out[l], expect) << "n=" << n << " lane " << l;
      }
    }
  }
}

// shift_lanes<N>, the backend's one cross-lane primitive: lane l >= N
// takes x[l-N], lane l < N keeps lo[l]. lo is random, not a broadcast,
// so each vacated lane must keep its own value.
template <class Ops, int N = 1>
void shift_lanes_semantics() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  if constexpr (N < W) {
    std::mt19937_64 rng(11 + N);
    for (int iter = 0; iter < 20; ++iter) {
      const auto x = random_values<Ops>(rng, W, true);
      const auto lo = random_values<Ops>(rng, W, true);
      alignas(64) T xbuf[W], lobuf[W], out[W];
      std::copy(x.begin(), x.end(), xbuf);
      std::copy(lo.begin(), lo.end(), lobuf);
      Ops::store(out, Ops::template shift_lanes<N>(Ops::load(xbuf),
                                                   Ops::load(lobuf)));
      for (int l = 0; l < W; ++l) {
        ASSERT_EQ(out[l], l < N ? lo[l] : x[l - N]) << "N=" << N << " lane "
                                                    << l;
      }
    }
    shift_lanes_semantics<Ops, 2 * N>();
  }
}

template <class Ops>
void set_vector_semantics() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;

  for (int segs : {1, 3, 17}) {
    for (int init : {0, -5, 40}) {
      alignas(64) T out[W];
      Ops::store(out, M::set_vector(segs, static_cast<T>(init), -12, -2));
      for (int l = 0; l < W; ++l) {
        const long expect = static_cast<long>(init) +
                            (-12L) + static_cast<long>(l) * segs * (-2L);
        const long clamped =
            std::max(expect, static_cast<long>(neg_inf<T>()));
        ASSERT_EQ(static_cast<long>(out[l]), clamped)
            << "segs=" << segs << " init=" << init << " lane=" << l;
      }
    }
  }
}

template <class Ops>
void wgt_max_scan_matches_reference() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(1234);

  for (int segs : {1, 2, 5, 16, 33}) {
    const int mpad = segs * W;
    for (int iter = 0; iter < 20; ++iter) {
      // Values in kernel-realistic range (scores, not rails).
      const auto logical = random_values<Ops>(rng, mpad, false);

      // Stripe them.
      util::AlignedBuffer<T> in(mpad), out(mpad), ref(mpad);
      for (int e = 0; e < mpad; ++e) {
        in[striped_offset(e, segs, W)] = logical[e];
      }

      const T init = static_cast<T>(static_cast<int>(iter) * 3 - 20);
      const T gap_first = -13, gap_ext = -3;
      M::wgt_max_scan(in.data(), out.data(), segs, init, gap_first, gap_ext);

      std::vector<T> expect(mpad);
      wgt_max_scan_reference<T>(logical.data(), expect.data(), mpad, init,
                                gap_first, gap_ext);
      for (int e = 0; e < mpad; ++e) {
        ASSERT_EQ(out[striped_offset(e, segs, W)], expect[e])
            << "segs=" << segs << " logical=" << e;
      }
    }
  }
}

template <class Ops>
void influence_and_hmax() {
  using T = typename Ops::value_type;
  using M = Modules<Ops>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(99);

  for (int iter = 0; iter < 30; ++iter) {
    const auto a = random_values<Ops>(rng, W, true);
    alignas(64) T abuf[W];
    std::copy(a.begin(), a.end(), abuf);
    const auto va = Ops::load(abuf);

    T expect = a[0];
    for (int l = 1; l < W; ++l) expect = std::max(expect, a[l]);
    ASSERT_EQ(M::hmax(va), expect);

    // influence_test(v, v) must be false (nothing beats itself).
    ASSERT_FALSE(M::influence_test(va, va));
    // Raising one lane by 1 (if not at rail) must trigger it.
    if (a[0] < std::numeric_limits<T>::max()) {
      alignas(64) T bbuf[W];
      std::copy(a.begin(), a.end(), bbuf);
      bbuf[0] = static_cast<T>(bbuf[0] + 1);
      ASSERT_TRUE(M::influence_test(Ops::load(bbuf), va));
    }
  }
}

template <class Ops>
void eq_mask_semantics() {
  // The multi-precision inter-sequence engine's saturation test.
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(77);

  for (int iter = 0; iter < 30; ++iter) {
    auto a = random_values<Ops>(rng, W, true);
    auto b = random_values<Ops>(rng, W, true);
    // Force some equal lanes (including the rail value the engine tests).
    for (int l = 0; l < W; ++l) {
      if (rng() % 3 == 0) b[l] = a[l];
      if (rng() % 5 == 0) a[l] = b[l] = std::numeric_limits<T>::max();
    }
    alignas(64) T abuf[W], bbuf[W];
    std::copy(a.begin(), a.end(), abuf);
    std::copy(b.begin(), b.end(), bbuf);
    std::uint64_t expect = 0;
    for (int l = 0; l < W; ++l) {
      if (a[l] == b[l]) expect |= std::uint64_t{1} << l;
    }
    ASSERT_EQ(Ops::eq_mask(Ops::load(abuf), Ops::load(bbuf)), expect);
  }
}

template <class Ops>
void gather_semantics() {
  // int32 lanes only (the inter-sequence kernel's dependency).
  using T = typename Ops::value_type;
  if constexpr (sizeof(T) == 4) {
    constexpr int W = Ops::kWidth;
    std::mt19937_64 rng(55);
    std::vector<T> table(997);
    for (auto& v : table) v = static_cast<T>(rng() % 100000) - 50000;
    std::uniform_int_distribution<int> idx_d(0, 996);
    for (int iter = 0; iter < 30; ++iter) {
      alignas(64) T idx[W], out[W];
      for (int l = 0; l < W; ++l) idx[l] = static_cast<T>(idx_d(rng));
      Ops::store(out, Ops::gather(table.data(), Ops::load(idx)));
      for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], table[idx[l]]);
    }
  }
}

template <class Ops>
void lookup_semantics() {
  // Optional primitive (backends with an in-register permute): 32-entry
  // table select, the score-profile builds and the striped kernels'
  // lookup-layout scores.
  using T = typename Ops::value_type;
  if constexpr (simd::HasLookup<Ops>) {
    constexpr int W = Ops::kWidth;
    std::mt19937_64 rng(66);
    alignas(64) T table[64] = {};
    for (int c = 0; c < 32; ++c) {
      table[c] = static_cast<T>(static_cast<int>(rng() % 200) - 100);
    }
    table[30] = simd::neg_inf<T>();  // a pad entry: every byte matters
    table[31] = std::numeric_limits<T>::max();
    std::uniform_int_distribution<int> idx_d(0, 31);
    for (int iter = 0; iter < 30; ++iter) {
      alignas(64) T idx[W], out[W];
      int sym[W];
      for (int l = 0; l < W; ++l) {
        sym[l] = idx_d(rng);
        idx[l] = static_cast<T>(sym[l] * Ops::kIndexMul + Ops::kIndexAdd);
      }
      Ops::store(out, Ops::lookup(Ops::load_table(table), Ops::load(idx)));
      for (int l = 0; l < W; ++l) ASSERT_EQ(out[l], table[sym[l]]);
    }
  }
}

// seg_scan_max: the lazy-F carry scan. Contract (simd/modules.h):
// out[0] = fill; out[l] = max(in[l-1], out[l-1] (+) step), where (+) is a
// saturating add for narrow types and a plain add for int32. The reference
// below runs the recurrence in long arithmetic with an explicit clamp -
// the in-register Kogge-Stone tree must match it at every width,
// including full-range inputs that hit the rails, for any fill (not
// only the absorbing neg_inf every caller passes today) and, at the
// narrow widths, steps below -2^bits.
template <class Ops>
void seg_scan_max_matches_reference() {
  using T = typename Ops::value_type;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(0x5Ca9);

  std::vector<long> steps = {-1L, -3L, -40L, -300L, 0L};
  if (sizeof(T) < 4) {
    steps.push_back(-(1L << (8 * sizeof(T))) - 1);
    steps.push_back(-(1L << 40));
  }
  // Full-range (rail-hitting) inputs are defined behaviour only for the
  // saturating narrow types; int32 uses plain adds and relies on the
  // neg_inf = min/2 headroom invariant, so it is tested in score range.
  for (const bool full_range : {false, sizeof(T) < 4}) {
    for (const long step : steps) {
      for (int iter = 0; iter < 30; ++iter) {
        const auto raw = random_values<Ops>(rng, W, full_range);
        util::AlignedBuffer<T> vals(W);
        for (int l = 0; l < W; ++l) vals[l] = raw[static_cast<std::size_t>(l)];
        typename Ops::reg v = Ops::load(vals.data());
        // A third of the runs use the absorbing fill, the rest a random
        // one from the same range as the lanes.
        const T fill = iter % 3 == 0 ? neg_inf<T>()
                                     : random_values<Ops>(rng, 1, full_range)[0];
        alignas(64) T out[W];
        Ops::to_array(Ops::seg_scan_max(v, step, fill), out);

        long carry = fill;
        for (int l = 0; l < W; ++l) {
          ASSERT_EQ(out[l], static_cast<T>(carry))
              << "lane " << l << " step " << step << " fill " << long{fill}
              << " full=" << full_range;
          long ext = carry + step;
          if (sizeof(T) < 4) {
            const long lo = std::numeric_limits<T>::min();
            const long hi = std::numeric_limits<T>::max();
            ext = ext < lo ? lo : (ext > hi ? hi : ext);
          }
          carry = std::max(static_cast<long>(vals[l]), ext);
        }
      }
    }
  }
}

// popcount_and: population count of the raw-bit AND of two whole
// registers, lane-type agnostic. Checked bit-exact against a per-lane
// reference on edge patterns (zero, all-ones, sign-bit-only, low-bit)
// and random full-range lanes.
template <class Ops>
void popcount_and_matches_reference() {
  using T = typename Ops::value_type;
  using U = std::make_unsigned_t<T>;
  constexpr int W = Ops::kWidth;
  std::mt19937_64 rng(0xB175);

  alignas(64) T a[W], b[W];
  const auto reference = [&]() {
    std::uint64_t n = 0;
    for (int l = 0; l < W; ++l) {
      n += static_cast<std::uint64_t>(std::popcount(
          static_cast<U>(static_cast<U>(a[l]) & static_cast<U>(b[l]))));
    }
    return n;
  };

  const U specials[] = {U{0}, static_cast<U>(~U{0}),
                        static_cast<U>(U{1} << (sizeof(T) * 8 - 1)), U{1}};
  for (U pa : specials) {
    for (U pb : specials) {
      for (int l = 0; l < W; ++l) {
        a[l] = static_cast<T>(pa);
        b[l] = static_cast<T>(pb);
      }
      ASSERT_EQ(Ops::popcount_and(Ops::load(a), Ops::load(b)), reference());
    }
  }
  for (int iter = 0; iter < 200; ++iter) {
    for (int l = 0; l < W; ++l) {
      a[l] = static_cast<T>(rng());
      b[l] = static_cast<T>(rng());
    }
    ASSERT_EQ(Ops::popcount_and(Ops::load(a), Ops::load(b)), reference())
        << "iter " << iter;
  }
}

// seg_scan_max is written once, in Modules, over the backend's
// shift_lanes; this view gives seg_scan_max_matches_reference the backend's
// other members plus that one scan.
template <class Ops>
struct WithModuleScan : Ops {
  static typename Ops::reg seg_scan_max(typename Ops::reg v, long step,
                                        typename Ops::value_type fill) {
    return Modules<Ops>::seg_scan_max(v, step, fill);
  }
};

template <class Ops>
void run_all() {
  primitive_roundtrip_and_arith<Ops>();
  shift_insert_semantics<Ops>();
  shift_lanes_semantics<Ops>();
  set_vector_semantics<Ops>();
  wgt_max_scan_matches_reference<Ops>();
  seg_scan_max_matches_reference<WithModuleScan<Ops>>();
  influence_and_hmax<Ops>();
  eq_mask_semantics<Ops>();
  gather_semantics<Ops>();
  lookup_semantics<Ops>();
  popcount_and_matches_reference<Ops>();
}

#define AALIGN_SIMD_TEST(SUITE, T, TAG)                       \
  TEST(SUITE, T##_##TAG) {                                    \
    if (!isa_available(isa_kind<TAG##Tag>()))                 \
      GTEST_SKIP() << #TAG " not available on this machine";  \
    run_all<VecOps<T, TAG##Tag>>();                           \
  }

using std::int16_t;
using std::int32_t;
using std::int8_t;

AALIGN_SIMD_TEST(SimdModules, int8_t, Scalar)
AALIGN_SIMD_TEST(SimdModules, int16_t, Scalar)
AALIGN_SIMD_TEST(SimdModules, int32_t, Scalar)
#if defined(AALIGN_HAVE_SSE41)
AALIGN_SIMD_TEST(SimdModules, int8_t, Sse41)
AALIGN_SIMD_TEST(SimdModules, int16_t, Sse41)
AALIGN_SIMD_TEST(SimdModules, int32_t, Sse41)
#endif
#if defined(AALIGN_HAVE_AVX2)
AALIGN_SIMD_TEST(SimdModules, int8_t, Avx2)
AALIGN_SIMD_TEST(SimdModules, int16_t, Avx2)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx2)
#endif
#if defined(AALIGN_HAVE_AVX512)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx512)
#endif
#if defined(AALIGN_HAVE_AVX512BW) && defined(__AVX512VBMI__)
AALIGN_SIMD_TEST(SimdModules, int8_t, Avx512Bw)
AALIGN_SIMD_TEST(SimdModules, int16_t, Avx512Bw)
AALIGN_SIMD_TEST(SimdModules, int32_t, Avx512Bw)
#endif

// The signature scan (the `popcount_and` primitive, simd/primitives.h)
// over whole word arrays: every form must agree bit-exactly with the
// scalar popcount sum, including word counts at and around each
// backend's lane boundary (strides are 4/8/16 int32 words, so 4..80
// covers below/at/above for all of them plus the strided-sweep tail
// path).
TEST(SigScan, BitExactAcrossBackendsAndWidths) {
  std::mt19937_64 rng(0x5163);
  for (const std::size_t words : {4, 8, 12, 16, 24, 32, 48, 64, 80}) {
    util::AlignedBuffer<std::int32_t> a, b;
    a.resize(words);
    b.resize(words);
    std::uint64_t expect = 0;
    for (std::size_t w = 0; w < words; ++w) {
      a[w] = static_cast<std::int32_t>(rng());
      b[w] = static_cast<std::int32_t>(rng());
      expect += static_cast<std::uint64_t>(
          std::popcount(static_cast<std::uint32_t>(a[w]) &
                        static_cast<std::uint32_t>(b[w])));
    }
    for (const auto& [name, fn] :
         test::distinct_forms(&Primitives::popcount_and)) {
      ASSERT_NE(fn, nullptr) << name;
      EXPECT_EQ(fn(a.data(), b.data(), words), expect)
          << name << " words=" << words;
    }
  }
}

// The scan reference itself: spot-check tiny cases by hand.
TEST(WgtMaxScanReference, TinyHandCase) {
  // m=3, init=10, first=-5, ext=-1:
  // out[0] = 10-5+0 = 5
  // out[1] = max(10-5-1, in0-5) ; out[2] = max(10-5-2, in0-5-1, in1-5)
  const std::int32_t in[3] = {20, 0, 0};
  std::int32_t out[3];
  wgt_max_scan_reference<std::int32_t>(in, out, 3, 10, -5, -1);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[1], 15);  // in0 - 5
  EXPECT_EQ(out[2], 14);  // in0 - 5 - 1
}

}  // namespace
