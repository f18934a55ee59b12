// The correctness spine: every vector kernel (strategy x ISA x width x
// alignment kind x gap system) must reproduce the sequential reference
// score exactly, on random, mutated-similar, and adversarial inputs.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "core/aligner.h"
#include "core/sequential.h"
#include "score/matrices.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

struct KernelCase {
  simd::IsaKind isa;
  ScoreWidth width;
  Strategy strategy;
  AlignKind kind;
  int pen_index;
};

std::string case_name(const testing::TestParamInfo<KernelCase>& info) {
  const KernelCase& c = info.param;
  std::string s = simd::isa_name(c.isa);
  s += "_";
  s += to_string(c.width);
  s += "_";
  s += to_string(c.strategy);
  s += "_";
  s += to_string(c.kind);
  s += "_pen";
  s += std::to_string(c.pen_index);
  for (char& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

std::vector<KernelCase> make_cases() {
  std::vector<KernelCase> cases;
  const auto pens = test::test_penalties();
  for (simd::IsaKind isa : test::available_isas()) {
    for (ScoreWidth width :
         {ScoreWidth::W8, ScoreWidth::W16, ScoreWidth::W32}) {
      // Skip widths the backend does not provide (e.g. AVX-512/IMCI profile
      // is 32-bit only).
      if (width == ScoreWidth::W16 &&
          core::get_engine<std::int16_t>(isa) == nullptr)
        continue;
      if (width == ScoreWidth::W32 &&
          core::get_engine<std::int32_t>(isa) == nullptr)
        continue;
      for (Strategy strategy : {Strategy::StripedIterate,
                                Strategy::StripedScan, Strategy::Hybrid}) {
        for (AlignKind kind :
             {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
              AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
          // int8 is exercised in dedicated saturation-aware tests; the
          // exact-equality sweep uses 16/32-bit.
          if (width == ScoreWidth::W8) continue;
          for (int p = 0; p < static_cast<int>(pens.size()); ++p) {
            cases.push_back(KernelCase{isa, width, strategy, kind, p});
          }
        }
      }
    }
  }
  return cases;
}

class KernelVsOracle : public testing::TestWithParam<KernelCase> {};

TEST_P(KernelVsOracle, MatchesSequentialReference) {
  const KernelCase& c = GetParam();
  const auto& matrix = score::ScoreMatrix::blosum62();

  AlignConfig cfg;
  cfg.kind = c.kind;
  cfg.pen = test::test_penalties()[static_cast<std::size_t>(c.pen_index)];

  core::QueryOptions opt;
  opt.strategy = c.strategy;
  opt.isa = c.isa;
  opt.width = c.width;
  // Aggressive hybrid parameters so the switching machinery actually
  // triggers inside short test sequences.
  opt.hybrid.window = 2;
  opt.hybrid.stride = 4;
  opt.hybrid.threshold = 0.05;

  PairAligner aligner(matrix, cfg, opt);
  if (aligner.options().width != ScoreWidth::Auto &&
      !simd::isa_available(c.isa)) {
    GTEST_SKIP() << "isa unavailable";
  }

  std::mt19937_64 rng(0xA11E + static_cast<unsigned>(c.pen_index));
  struct PairSpec {
    std::size_t m, n;
    double sub, indel;
  };
  const PairSpec specs[] = {
      {1, 1, 1.0, 0.0},      {1, 50, 1.0, 0.0},    {50, 1, 1.0, 0.0},
      {3, 200, 1.0, 0.0},    {33, 40, 0.9, 0.1},   {64, 64, 0.2, 0.02},
      {65, 63, 0.05, 0.01},  {128, 70, 0.5, 0.1},  {200, 200, 0.1, 0.02},
      {257, 101, 0.02, 0.0}, {90, 300, 0.3, 0.05},
  };

  for (const PairSpec& ps : specs) {
    const auto q = test::random_protein(rng, ps.m);
    auto s = test::mutate(rng, q, ps.sub, ps.indel);
    s.resize(std::max<std::size_t>(1, std::min(s.size(), ps.n)));

    const long expect = core::align_sequential(matrix, cfg, q, s);
    aligner.set_query(q);
    const AlignResult got = aligner.align(s);
    ASSERT_FALSE(got.saturated)
        << "unexpected saturation at m=" << ps.m << " n=" << s.size();
    ASSERT_EQ(got.score, expect)
        << "m=" << ps.m << " n=" << s.size() << " sub=" << ps.sub;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelVsOracle,
                         testing::ValuesIn(make_cases()), case_name);

// --- int8 kernels: exact when in range, flagged when saturated -----------

struct Int8Case {
  simd::IsaKind isa;
  Strategy strategy;
};

std::vector<Int8Case> int8_cases() {
  std::vector<Int8Case> cases;
  for (simd::IsaKind isa : test::available_isas()) {
    if (core::get_engine<std::int8_t>(isa) == nullptr) continue;
    for (Strategy s : {Strategy::StripedIterate, Strategy::StripedScan,
                       Strategy::Hybrid}) {
      cases.push_back({isa, s});
    }
  }
  return cases;
}

class Int8Kernels : public testing::TestWithParam<Int8Case> {};

TEST_P(Int8Kernels, ExactWithinRange) {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  core::QueryOptions opt;
  opt.strategy = GetParam().strategy;
  opt.isa = GetParam().isa;
  opt.width = ScoreWidth::W8;
  PairAligner aligner(matrix, cfg, opt);

  std::mt19937_64 rng(77);
  for (int iter = 0; iter < 15; ++iter) {
    // Dissimilar pairs: local scores stay far below the int8 rail.
    const auto q = test::random_protein(rng, 60 + iter * 10);
    const auto s = test::random_protein(rng, 80);
    const long expect = core::align_sequential(matrix, cfg, q, s);
    if (expect >= 90) continue;  // stay clearly inside range
    aligner.set_query(q);
    const AlignResult got = aligner.align(s);
    EXPECT_FALSE(got.saturated);
    EXPECT_EQ(got.score, expect) << "iter " << iter;
  }
}

TEST_P(Int8Kernels, SaturationIsFlagged) {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  core::QueryOptions opt;
  opt.strategy = GetParam().strategy;
  opt.isa = GetParam().isa;
  opt.width = ScoreWidth::W8;
  PairAligner aligner(matrix, cfg, opt);

  std::mt19937_64 rng(78);
  // Identical 200-residue sequences: true score ~ 200 * avg(diag) >> 127.
  const auto q = test::random_protein(rng, 200);
  aligner.set_query(q);
  const AlignResult got = aligner.align(q);
  EXPECT_TRUE(got.saturated);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Int8Kernels,
                         testing::ValuesIn(int8_cases()),
                         [](const testing::TestParamInfo<Int8Case>& pinfo) {
                           std::string s = simd::isa_name(pinfo.param.isa);
                           s += "_";
                           s += to_string(pinfo.param.strategy);
                           for (char& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

// --- adaptive promotion ---------------------------------------------------

TEST(AdaptivePromotion, PromotesUntilExact) {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  for (simd::IsaKind isa : test::available_isas()) {
    core::QueryOptions opt;
    opt.isa = isa;
    opt.width = ScoreWidth::Auto;
    PairAligner aligner(matrix, cfg, opt);

    std::mt19937_64 rng(5);
    const auto q = test::random_protein(rng, 400);
    const auto s = test::mutate(rng, q, 0.05, 0.01);
    const long expect = core::align_sequential(matrix, cfg, q, s);
    ASSERT_GT(expect, 500);  // guaranteed beyond int8

    aligner.set_query(q);
    const AlignResult got = aligner.align(s);
    EXPECT_EQ(got.score, expect) << simd::isa_name(isa);
    EXPECT_FALSE(got.saturated);
    if (core::get_engine<std::int8_t>(isa) != nullptr) {
      EXPECT_GE(got.promotions, 1) << simd::isa_name(isa);
      EXPECT_GT(static_cast<int>(got.width),
                static_cast<int>(ScoreWidth::W8));
    }
  }
}

TEST(AdaptivePromotion, GlobalStartsWideEnough) {
  const auto& matrix = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);

  std::mt19937_64 rng(6);
  // Boundary gap magnitude ~ 10 + 600*2 = 1210: int8 impossible, int16 ok.
  const auto q = test::random_protein(rng, 600);
  const auto s = test::mutate(rng, q, 0.4, 0.05);
  const long expect = core::align_sequential(matrix, cfg, q, s);

  core::QueryOptions opt;
  opt.width = ScoreWidth::Auto;
  PairAligner aligner(matrix, cfg, opt);
  aligner.set_query(q);
  const AlignResult got = aligner.align(s);
  EXPECT_EQ(got.score, expect);
  EXPECT_EQ(got.promotions, 0);  // pre-check should skip int8 entirely
}

}  // namespace
