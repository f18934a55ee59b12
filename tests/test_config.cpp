// Configuration layer: validation, gap-model derivation, the start-width
// floor (min_safe_width), and the Farrar-safety predicate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "core/config.h"
#include "core/inter_engine.h"
#include "core/query_context.h"
#include "simd/primitives.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

TEST(Config, GapModelDerivation) {
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);
  EXPECT_EQ(cfg.gap_model(), GapModel::Affine);
  cfg.pen = Penalties::symmetric(0, 4);
  EXPECT_EQ(cfg.gap_model(), GapModel::Linear);
}

TEST(Config, ValidationRejectsBadPenalties) {
  AlignConfig cfg;
  cfg.pen.query.extend = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.pen.subject.open = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Mixed linear/affine is rejected.
  cfg = {};
  cfg.pen.query = GapScheme{0, 4};
  cfg.pen.subject = GapScheme{10, 2};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, FarrarSafety) {
  using test::farrar_safe;
  const auto& blosum = score::ScoreMatrix::blosum62();  // min -4
  EXPECT_TRUE(farrar_safe(blosum, Penalties::symmetric(10, 2)));   // -4 >= -4
  EXPECT_TRUE(farrar_safe(blosum, Penalties::symmetric(0, 4)));    // -4 >= -8
  EXPECT_FALSE(farrar_safe(blosum, Penalties::symmetric(10, 1)));  // -4 < -2

  // A mild matrix makes small extends safe again.
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(2, 1);
  EXPECT_TRUE(farrar_safe(dna, Penalties::symmetric(10, 1)));
}

TEST(Config, MinSafeWidthLocalIsNarrowest) {
  // Local H never goes below 0 and the positive rail is caught at run
  // time, so every local problem may start at int8.
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  for (const std::size_t len : {1, 5, 1000, 10000, 60000}) {
    EXPECT_EQ(min_safe_width(cfg, len, len), ScoreWidth::W8) << len;
  }
}

TEST(Config, MinSafeWidthNonLocalNegativeFloor) {
  // The floor is the all-gap path (open_q + ext_q*m) + (open_s + ext_s*n)
  // plus one gap-first step, kept kRailMargin off the rail. With 10/2 gaps
  // that is 32 + 2(m + n): int8 up to m + n = 31 and int16 up to
  // m + n = 16351, however the sum splits between query and subject.
  for (const AlignKind kind :
       {AlignKind::Global, AlignKind::SemiGlobal, AlignKind::SemiGlobalQuery,
        AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    const std::string what = to_string(kind);
    for (const std::size_t m : {0, 1, 15, 31}) {
      EXPECT_EQ(min_safe_width(cfg, m, 31 - m), ScoreWidth::W8) << what;
      EXPECT_EQ(min_safe_width(cfg, m, 32 - m), ScoreWidth::W16) << what;
    }
    for (const std::size_t m : {0, 1, 3000, 8175, 16351}) {
      EXPECT_EQ(min_safe_width(cfg, m, 16351 - m), ScoreWidth::W16) << what;
      EXPECT_EQ(min_safe_width(cfg, m, 16352 - m), ScoreWidth::W32) << what;
    }
    // The positive range does not count: a 3000 x 3000 pair can score
    // 33,000 under BLOSUM62, past the int16 rail, and still starts there.
    EXPECT_EQ(min_safe_width(cfg, 3000, 3000), ScoreWidth::W16) << what;
    EXPECT_EQ(min_safe_width(cfg, 60000, 60000), ScoreWidth::W32) << what;

    // Each side is charged its own gaps: query 5/1, subject 20/3, so
    // low = 25 + m + 3n + 23 against 32768 - 32.
    cfg.pen = Penalties{{5, 1}, {20, 3}};
    EXPECT_EQ(min_safe_width(cfg, 32687, 0), ScoreWidth::W16) << what;
    EXPECT_EQ(min_safe_width(cfg, 32688, 0), ScoreWidth::W32) << what;
    EXPECT_EQ(min_safe_width(cfg, 0, 10895), ScoreWidth::W16) << what;
    EXPECT_EQ(min_safe_width(cfg, 0, 10896), ScoreWidth::W32) << what;
  }
}

TEST(Config, ToStringCoverage) {
  EXPECT_STREQ(to_string(AlignKind::Local), "local");
  EXPECT_STREQ(to_string(AlignKind::Global), "global");
  EXPECT_STREQ(to_string(AlignKind::SemiGlobal), "semiglobal");
  EXPECT_STREQ(to_string(GapModel::Linear), "linear");
  EXPECT_STREQ(to_string(GapModel::Affine), "affine");
  EXPECT_STREQ(to_string(Strategy::StripedIterate), "striped-iterate");
  EXPECT_STREQ(to_string(Strategy::StripedScan), "striped-scan");
  EXPECT_STREQ(to_string(Strategy::Hybrid), "hybrid");
  EXPECT_STREQ(to_string(ScoreWidth::W8), "int8");
  EXPECT_STREQ(to_string(ScoreWidth::W16), "int16");
  EXPECT_STREQ(to_string(ScoreWidth::W32), "int32");
}

// The randomized tests draw a strategy as static_cast<Strategy>(r % 3), so
// the enumerators must be exactly 0..2 and each draw a runnable strategy.
TEST(Config, StrategyValuesAreDenseFromZero) {
  EXPECT_EQ(static_cast<Strategy>(0), Strategy::StripedIterate);
  EXPECT_EQ(static_cast<Strategy>(1), Strategy::StripedScan);
  EXPECT_EQ(static_cast<Strategy>(2), Strategy::Hybrid);
}

// KernelStats::operator+= is how search executors merge per-worker
// counters; each field must accumulate independently.
TEST(Config, KernelStatsAccumulateEveryField) {
  KernelStats a;
  a.columns = 1;
  a.lazy_steps = 2;
  a.iterate_columns = 3;
  a.scan_columns = 4;
  a.switches = 5;
  a.lazyf_fixup_cols = 6;
  KernelStats b;
  b.columns = 10;
  b.lazy_steps = 20;
  b.iterate_columns = 30;
  b.scan_columns = 40;
  b.switches = 50;
  b.lazyf_fixup_cols = 60;

  KernelStats& ret = (a += b);
  EXPECT_EQ(&ret, &a);
  EXPECT_EQ(a.columns, 11u);
  EXPECT_EQ(a.lazy_steps, 22u);
  EXPECT_EQ(a.iterate_columns, 33u);
  EXPECT_EQ(a.scan_columns, 44u);
  EXPECT_EQ(a.switches, 55u);
  EXPECT_EQ(a.lazyf_fixup_cols, 66u);
  // The right-hand side is left untouched.
  EXPECT_EQ(b.columns, 10u);
}

TEST(Isa, NamesAndOrdering) {
  using simd::IsaKind;
  EXPECT_STREQ(simd::isa_name(IsaKind::Scalar), "scalar");
  EXPECT_STREQ(simd::isa_name(IsaKind::Avx512), "avx512");
  // Scalar is always available; best_available_isa returns something
  // available.
  EXPECT_TRUE(simd::isa_available(IsaKind::Scalar));
  EXPECT_TRUE(simd::isa_available(simd::best_available_isa()));
  // Every kernel-choosing option set defaults to the best ISA.
  EXPECT_EQ(core::QueryOptions{}.isa, simd::best_available_isa());
}

template <class T>
int striped_lanes(simd::IsaKind isa) {
  const core::Engine<T>* e = core::get_engine<T>(isa);
  return e != nullptr ? e->lanes() : 0;
}

TEST(Isa, BackendTable) {
  using simd::IsaKind;
  // Lanes at int8 / int16 / int32; 0 where the backend has no such lanes
  // (the AVX-512 IMCI profile is int32-only, Sec. II-A).
  struct Row {
    IsaKind isa;
    int lanes[core::kInterPrecisionCount];
  };
  const Row rows[] = {
      {IsaKind::Scalar, {8, 8, 8}},    {IsaKind::Sse41, {16, 8, 4}},
      {IsaKind::Avx2, {32, 16, 8}},    {IsaKind::Avx512, {0, 0, 16}},
      {IsaKind::Avx512Bw, {64, 32, 16}},
  };
  ASSERT_EQ(std::size(rows), std::size(simd::kAllIsaKinds));
  for (const Row& r : rows) {
    SCOPED_TRACE(simd::isa_name(r.isa));
    const bool available = simd::isa_available(r.isa);
    const int striped[] = {striped_lanes<std::int8_t>(r.isa),
                           striped_lanes<std::int16_t>(r.isa),
                           striped_lanes<std::int32_t>(r.isa)};
    const core::InterEngine* inter = core::get_inter_engine(r.isa);
    EXPECT_EQ(inter != nullptr, available);
    for (int p = 0; p < core::kInterPrecisionCount; ++p) {
      EXPECT_EQ(striped[p], available ? r.lanes[p] : 0) << "tier " << p;
      if (inter != nullptr) {
        EXPECT_EQ(inter->lanes(static_cast<core::InterPrecision>(p)),
                  striped[p])
            << "tier " << p;
      }
    }
  }
}

// One field of the fallback table: the available backends in `owners`
// (bit k for IsaKind k) have non-null, distinct own forms, the other
// available ones nullptr, and primitives(k) holds the own form of the
// highest available ISA at or below k that has one.
template <class Fn>
void expect_fallback(Fn simd::Primitives::*field, unsigned owners) {
  std::vector<Fn> own_forms;
  for (const simd::IsaKind k : simd::kAllIsaKinds) {
    SCOPED_TRACE(simd::isa_name(k));
    const simd::Primitives* own = simd::own_primitives(k);
    if (own == nullptr) continue;  // not available
    const bool owner = (owners >> static_cast<unsigned>(k)) & 1;
    EXPECT_EQ(own->*field != nullptr, owner);
    if (owner) {
      EXPECT_EQ(std::count(own_forms.begin(), own_forms.end(), own->*field),
                0);
      own_forms.push_back(own->*field);
    }
  }
  for (const simd::IsaKind k : simd::kAllIsaKinds) {
    Fn want = nullptr;
    for (const simd::IsaKind j : simd::kAllIsaKinds) {
      if (j <= k && simd::isa_available(j) &&
          ((owners >> static_cast<unsigned>(j)) & 1)) {
        want = simd::own_primitives(j)->*field;
      }
    }
    EXPECT_NE(simd::primitives(k).*field, nullptr) << simd::isa_name(k);
    EXPECT_EQ(simd::primitives(k).*field, want) << simd::isa_name(k);
  }
}

TEST(Primitives, FallbackTable) {
  using simd::IsaKind;
  constexpr auto bit = [](IsaKind k) { return 1u << static_cast<unsigned>(k); };
  const unsigned scalar = bit(IsaKind::Scalar), sse41 = bit(IsaKind::Sse41),
                 avx2 = bit(IsaKind::Avx2), avx512 = bit(IsaKind::Avx512),
                 avx512bw = bit(IsaKind::Avx512Bw);
  // The backends with their own form of each field, in the order of
  // simd::kPrimitiveFields.
  const struct {
    const char* name;
    unsigned owners;
  } rows[] = {
      {"translate", scalar | avx512bw},
      {"squeeze", scalar | avx512bw},
      {"stripe", scalar | sse41},
      {"fnv_lanes", scalar | avx2 | avx512},
      {"offset_scan", scalar | avx2 | avx512},
      {"inverse_check", scalar | avx2},
      {"popcount_and", scalar | sse41 | avx2 | avx512 | avx512bw},
  };
  ASSERT_EQ(std::size(rows),
            std::tuple_size_v<decltype(simd::kPrimitiveFields)>);
  std::size_t i = 0;
  const auto check = [&](auto field) {
    SCOPED_TRACE(rows[i].name);
    expect_fallback(field, rows[i++].owners);
  };
  std::apply([&](auto... field) { (check(field), ...); },
             simd::kPrimitiveFields);

  // The scalar row is the reference forms, and primitives() the best row.
  const simd::Primitives& s = simd::primitives(IsaKind::Scalar);
  EXPECT_EQ(s.translate, &simd::translate_scalar);
  EXPECT_EQ(s.squeeze, &simd::squeeze_scalar);
  EXPECT_EQ(s.stripe, &simd::stripe_scalar);
  EXPECT_EQ(s.fnv_lanes, &simd::fnv_lanes_scalar);
  EXPECT_EQ(s.offset_scan, &simd::offset_scan_scalar);
  EXPECT_EQ(s.inverse_check, &simd::inverse_check_scalar);
  EXPECT_EQ(s.popcount_and, &simd::popcount_and_scalar);
  EXPECT_EQ(&simd::primitives(),
            &simd::primitives(simd::best_available_isa()));
}

}  // namespace
