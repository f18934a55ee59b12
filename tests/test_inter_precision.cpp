// The adaptive-precision inter-sequence engine must be invisible in the
// results: tiered int8 -> int16 -> int32 execution returns scores exactly
// equal to the int32-only kernel (and the sequential oracle) on every
// database, with overflowed lanes transparently re-run at wider precision.
#include <gtest/gtest.h>

#include <random>

#include "core/inter_engine.h"
#include "core/sequential.h"
#include "search/inter_search.h"
#include "seq/generator.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

constexpr auto kI8 = core::InterPrecision::I8;
constexpr auto kI16 = core::InterPrecision::I16;
constexpr auto kI32 = core::InterPrecision::I32;

// Encoded residue with the largest BLOSUM62 self-score (tryptophan, +11):
// repeats of it give the fastest-growing alignment scores, the adversarial
// input for saturation.
std::uint8_t best_diagonal_residue(const score::ScoreMatrix& m) {
  int best = 0;
  for (int a = 1; a < 20; ++a) {
    if (m.at(a, a) > m.at(best, best)) best = a;
  }
  return static_cast<std::uint8_t>(best);
}

class InterPrecisionTest : public testing::TestWithParam<simd::IsaKind> {};

TEST_P(InterPrecisionTest, TieredMatchesInt32OnRandomBatches) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  seq::SequenceGenerator gen(71);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(90).residues);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(77, 60.0, 0.9, 4, 250));

  search::SearchOptions opt;
  opt.threads = 2;
  opt.query.isa = isa;
  search::InterSequenceSearch tiered(m, pen, opt);
  search::SearchOptions exact_opt = opt;
  exact_opt.query.width = ScoreWidth::W32;
  search::InterSequenceSearch exact(m, pen, exact_opt);

  seq::Database db1 = db;
  const auto r_tiered = tiered.search(query, db1);
  seq::Database db2 = db;
  const auto r_exact = exact.search(query, db2);

  ASSERT_EQ(r_tiered.scores.size(), db.size());
  EXPECT_EQ(r_tiered.scores, r_exact.scores);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(r_tiered.scores[i],
              core::align_sequential(m, cfg, query, db1.by_original(i).view()))
        << "subject " << i;
  }
  // The exact-baseline run must never touch the narrow tiers.
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI8)].subjects, 0u);
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI16)].subjects, 0u);
  EXPECT_EQ(r_exact.tiers[static_cast<int>(kI32)].subjects, db.size());
}

TEST_P(InterPrecisionTest, Int8OverflowRequeuesToWiderTiers) {
  const simd::IsaKind isa = GetParam();
  const core::InterEngine* engine = core::get_inter_engine(isa);
  if (engine == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  // Query with a hot 60-residue core: the identical subject scores far
  // above the int8 ceiling (60 * 11 = 660), while the random subjects
  // stay below it - so one batch mixes clean and saturating lanes.
  seq::SequenceGenerator gen(72);
  std::mt19937_64 rng(73);
  auto query = test::random_protein(rng, 40);
  const std::uint8_t hot = best_diagonal_residue(m);
  query.insert(query.end(), 60, hot);

  const score::Alphabet& protein = score::Alphabet::protein();
  auto seqs = gen.protein_database(30, 90.0, 0.7, 20, 160);
  seqs.push_back(test::sequence(protein, "homolog", query));
  seqs.push_back(test::sequence(protein, "half-homolog",
                                std::span(query).subspan(20)));
  const seq::Database db(protein, seqs);

  search::SearchOptions opt;
  opt.threads = 2;
  opt.query.isa = isa;
  search::InterSequenceSearch tiered(m, pen, opt);
  const auto res = tiered.search(query, db);

  ASSERT_EQ(res.scores.size(), db.size());
  long best = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const long oracle =
        core::align_sequential(m, cfg, query, db.by_original(i).view());
    EXPECT_EQ(res.scores[i], oracle) << "subject " << i;
    best = std::max(best, oracle);
  }
  ASSERT_GT(best, core::inter_score_ceiling(kI8));

  if (engine->lanes(kI8) > 0) {
    const auto& t8 = res.tiers[static_cast<int>(kI8)];
    EXPECT_EQ(t8.subjects, db.size());
    EXPECT_GE(t8.overflowed, 2u);  // both homologs saturate int8
    EXPECT_GE(res.promotions, t8.overflowed);
    // Re-queued lanes really ran at a wider precision.
    const auto& t16 = res.tiers[static_cast<int>(kI16)];
    const auto& t32 = res.tiers[static_cast<int>(kI32)];
    EXPECT_EQ(t16.subjects + (engine->lanes(kI16) > 0 ? 0 : t32.subjects),
              t8.overflowed);
  }
}

TEST_P(InterPrecisionTest, Int16OverflowFallsThroughToInt32) {
  const simd::IsaKind isa = GetParam();
  const core::InterEngine* engine = core::get_inter_engine(isa);
  if (engine == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  // Identical 3100-residue tryptophan runs: exact score 3100 * 11 =
  // 34100, above the int16 ceiling, so the subject must fall through both
  // narrow tiers and still come back exact.
  const std::uint8_t hot = best_diagonal_residue(m);
  ASSERT_GE(m.at(hot, hot) * 3100L, core::inter_score_ceiling(kI16) + 1);
  const std::vector<std::uint8_t> query(3100, hot);

  std::mt19937_64 rng(74);
  const score::Alphabet& protein = score::Alphabet::protein();
  const seq::Database db(
      protein,
      {test::sequence(protein, "giant", query),
       test::sequence(protein, "noise", test::random_protein(rng, 120))});

  search::SearchOptions opt;
  opt.threads = 1;
  opt.query.isa = isa;
  search::InterSequenceSearch tiered(m, pen, opt);
  const auto res = tiered.search(query, db);

  ASSERT_EQ(res.scores.size(), 2u);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, db.by_original(i).view()))
        << "subject " << i;
  }
  EXPECT_GT(res.top[0].score, core::inter_score_ceiling(kI16));
  if (engine->lanes(kI16) > 0) {
    EXPECT_GE(res.tiers[static_cast<int>(kI16)].overflowed, 1u);
  }
  EXPECT_GE(res.tiers[static_cast<int>(kI32)].subjects, 1u);
}

// opt.query.width picks the ladder's first rung: W32 never touches the
// narrow tiers, W16 skips int8. Scores stay exact either way.
TEST_P(InterPrecisionTest, QueryWidthPicksFirstRung) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  seq::SequenceGenerator gen(76);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(70).residues);
  seq::Database db(score::Alphabet::protein(), gen.protein_database(40, 90.0));

  search::SearchOptions opt;
  opt.threads = 2;
  opt.query.isa = isa;
  seq::Database db0 = db;
  const auto r_auto = search::InterSequenceSearch(m, pen, opt).search(query, db0);

  opt.query.width = ScoreWidth::W32;
  seq::Database db1 = db;
  const auto r32 = search::InterSequenceSearch(m, pen, opt).search(query, db1);
  EXPECT_EQ(r32.tiers[static_cast<int>(kI8)].subjects, 0u);
  EXPECT_EQ(r32.tiers[static_cast<int>(kI16)].subjects, 0u);
  EXPECT_EQ(r32.tiers[static_cast<int>(kI32)].subjects, db.size());
  EXPECT_EQ(r32.scores, r_auto.scores);

  opt.query.width = ScoreWidth::W16;
  seq::Database db2 = db;
  const auto r16 = search::InterSequenceSearch(m, pen, opt).search(query, db2);
  EXPECT_EQ(r16.tiers[static_cast<int>(kI8)].subjects, 0u);
  EXPECT_EQ(r16.scores, r_auto.scores);
}

TEST_P(InterPrecisionTest, RespectsSearchOptions) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  seq::SequenceGenerator gen(75);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(80).residues);
  seq::Database db(score::Alphabet::protein(), gen.protein_database(25, 90.0));

  search::SearchOptions full;
  full.threads = 1;
  full.query.isa = isa;
  search::InterSequenceSearch ref(m, pen, full);
  seq::Database db1 = db;
  const auto r_full = ref.search(query, db1);

  search::SearchOptions trimmed;
  trimmed.threads = 1;
  trimmed.top_k = 3;
  trimmed.keep_all_scores = false;
  trimmed.query.isa = isa;
  search::InterSequenceSearch cut(m, pen, trimmed);
  seq::Database db2 = db;
  const auto r_cut = cut.search(query, db2);

  EXPECT_TRUE(r_cut.scores.empty());
  ASSERT_EQ(r_cut.top.size(), 3u);
  ASSERT_GE(r_full.top.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(r_cut.top[i].index, r_full.top[i].index);
    EXPECT_EQ(r_cut.top[i].score, r_full.top[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, InterPrecisionTest,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

}  // namespace
