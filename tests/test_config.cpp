// Configuration layer: validation, gap-model derivation, width pre-checks
// (min_safe_width), and the Farrar-safety predicate.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "core/config.h"
#include "core/inter_engine.h"
#include "core/query_context.h"

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
  const auto& blosum = score::ScoreMatrix::blosum62();  // min -4
  EXPECT_TRUE(farrar_safe(blosum, Penalties::symmetric(10, 2)));   // -4 >= -4
  EXPECT_TRUE(farrar_safe(blosum, Penalties::symmetric(0, 4)));    // -4 >= -8
  EXPECT_FALSE(farrar_safe(blosum, Penalties::symmetric(10, 1)));  // -4 < -2

  // A mild matrix makes small extends safe again.
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(2, 1);
  EXPECT_TRUE(farrar_safe(dna, Penalties::symmetric(10, 1)));
}

TEST(Config, MinSafeWidthLocal) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  // Tiny problem: max score ~ 10*11 = 110 < 127-headroom? headroom ~35 ->
  // needs int16. Slightly conservative is fine; must never be wider than
  // int16 here and never narrower than what the bound implies.
  const ScoreWidth w_small = min_safe_width(cfg, m, 5, 5);
  EXPECT_LE(static_cast<int>(w_small), static_cast<int>(ScoreWidth::W16));
  // 10k identical residues: bound ~110k -> int32.
  EXPECT_EQ(min_safe_width(cfg, m, 10000, 10000), ScoreWidth::W32);
  // 1k: bound ~11k -> int16.
  EXPECT_EQ(min_safe_width(cfg, m, 1000, 1000), ScoreWidth::W16);
}

TEST(Config, MinSafeWidthGlobalCountsBoundaries) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  // Local would allow narrow widths at this size, but global boundary
  // gaps reach -(10 + 600*2) and mismatches can stack: needs wider.
  const ScoreWidth local_w = [&] {
    AlignConfig c = cfg;
    c.kind = AlignKind::Local;
    return min_safe_width(c, m, 40, 40);
  }();
  const ScoreWidth global_w = min_safe_width(cfg, m, 40, 40);
  EXPECT_GE(static_cast<int>(global_w), static_cast<int>(local_w));
  EXPECT_EQ(min_safe_width(cfg, m, 60000, 60000), ScoreWidth::W32);
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
  a.lazyf_saved_iters = 7;
  KernelStats b;
  b.columns = 10;
  b.lazy_steps = 20;
  b.iterate_columns = 30;
  b.scan_columns = 40;
  b.switches = 50;
  b.lazyf_fixup_cols = 60;
  b.lazyf_saved_iters = 70;

  KernelStats& ret = (a += b);
  EXPECT_EQ(&ret, &a);
  EXPECT_EQ(a.columns, 11u);
  EXPECT_EQ(a.lazy_steps, 22u);
  EXPECT_EQ(a.iterate_columns, 33u);
  EXPECT_EQ(a.scan_columns, 44u);
  EXPECT_EQ(a.switches, 55u);
  EXPECT_EQ(a.lazyf_fixup_cols, 66u);
  EXPECT_EQ(a.lazyf_saved_iters, 77u);
  // The right-hand side is left untouched.
  EXPECT_EQ(b.columns, 10u);
  EXPECT_EQ(b.lazyf_saved_iters, 70u);
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

}  // namespace
