// Striping boundary conditions: query lengths straddling every lane/segment
// boundary (m = k*V +/- 1 and friends) are where striped kernels
// historically break (padding, rshift carry, lazy-F wrap). Sweep them all
// against the oracle on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

class Boundaries : public testing::TestWithParam<simd::IsaKind> {};

TEST_P(Boundaries, QueryLengthsAroundLaneMultiples) {
  const simd::IsaKind isa = GetParam();
  const auto* engine = core::get_engine<std::int32_t>(isa);
  ASSERT_NE(engine, nullptr);
  const int V = engine->lanes();

  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2024);

  std::vector<std::size_t> lengths = {1, 2};
  for (int mult : {1, 2, 3, 7}) {
    const int base = mult * V;
    if (base > 1) lengths.push_back(static_cast<std::size_t>(base - 1));
    lengths.push_back(static_cast<std::size_t>(base));
    lengths.push_back(static_cast<std::size_t>(base + 1));
  }

  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
          AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    for (std::size_t mlen : lengths) {
      const auto q = test::random_protein(rng, mlen);
      const auto s = test::mutate(rng, q, 0.3, 0.05);
      const long expect = core::align_sequential(m, cfg, q, s);
      for (Strategy strat : {Strategy::StripedIterate, Strategy::StripedScan,
                             Strategy::Hybrid}) {
        core::QueryOptions opt;
        opt.isa = isa;
        opt.width = ScoreWidth::W32;
        opt.strategy = strat;
        ASSERT_EQ(align_pair(m, cfg, q, s, opt).score, expect)
            << simd::isa_name(isa) << " " << to_string(kind) << " "
            << to_string(strat) << " m=" << mlen;
      }
    }
  }
}

TEST_P(Boundaries, SubjectShorterThanOneColumnBlock) {
  // n in {1..4}: hybrid windows/strides exceed the subject entirely.
  const simd::IsaKind isa = GetParam();
  if (core::get_engine<std::int32_t>(isa) == nullptr) GTEST_SKIP();
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2025);
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  for (std::size_t n = 1; n <= 4; ++n) {
    const auto q = test::random_protein(rng, 100);
    const auto s = test::random_protein(rng, n);
    core::QueryOptions opt;
    opt.isa = isa;
    opt.strategy = Strategy::Hybrid;
    opt.hybrid.window = 64;
    ASSERT_EQ(align_pair(m, cfg, q, s, opt).score,
              core::align_sequential(m, cfg, q, s))
        << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Boundaries,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

// Degenerate subjects through the two-stage filter path: the guards must
// route empty, single-residue, and sub-k subjects into exact rescoring
// (their signatures carry no information), and the search must score them
// exactly as the exhaustive scan does.
TEST(FilterBoundaries, DegenerateSubjectsSurviveAndRescore) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(3030);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto query = test::random_protein(rng, 150);
  const score::Alphabet& protein = m.alphabet();
  std::vector<seq::Sequence> seqs;
  auto add = [&](std::string id, const std::vector<std::uint8_t>& s) {
    seqs.push_back(test::sequence(protein, std::move(id), s));
  };
  add("empty", {});
  add("one", test::random_protein(rng, 1));
  add("two", test::random_protein(rng, 2));
  // All-identical subject (homopolymer): its signature is a single bit.
  add("homopoly", std::vector<std::uint8_t>(120, 7));
  add("self", query);
  for (int i = 0; i < 20; ++i) {
    add("bg" + std::to_string(i), test::random_protein(rng, 200));
  }
  const seq::Database db(protein, seqs);

  search::SearchOptions exhaustive_opt;
  exhaustive_opt.threads = 1;
  search::SearchOptions filtered_opt = exhaustive_opt;
  filtered_opt.filter.mode = filter::FilterMode::On;

  const auto base =
      search::DatabaseSearch(m, cfg, exhaustive_opt).search(query, db);
  const auto res =
      search::DatabaseSearch(m, cfg, filtered_opt).search(query, db);
  ASSERT_TRUE(res.filtered);
  // The degenerate subjects (original indices 0..3) and the identical
  // copy (4) all survive with exhaustive-identical scores.
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_NE(res.scores[i], filter::kDroppedScore) << "subject " << i;
    EXPECT_EQ(res.scores[i], base.scores[i]) << "subject " << i;
  }
  EXPECT_GE(res.filter_stats.auto_pass, 3u);  // empty/one/two at least
  ASSERT_FALSE(res.top.empty());
  EXPECT_EQ(res.top[0].index, 4u);  // the identical copy wins
}

// A database that is ALL guard cases: every subject auto-passes, the
// filter drops nothing, and the result is bit-identical to exhaustive.
TEST(FilterBoundaries, AllGuardDatabaseDropsNothing) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(3131);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  const auto query = test::random_protein(rng, 100);
  std::vector<std::vector<std::uint8_t>> seqs;
  for (int i = 0; i < 12; ++i) {
    seqs.push_back(test::random_protein(rng, static_cast<std::size_t>(i)));
  }
  const seq::Database db = test::encoded_database(m.alphabet(), seqs);
  search::SearchOptions opt;
  opt.threads = 1;
  opt.filter.mode = filter::FilterMode::On;
  const auto res = search::DatabaseSearch(m, cfg, opt).search(query, db);
  ASSERT_TRUE(res.filtered);
  EXPECT_EQ(res.filter_stats.survivors, res.filter_stats.candidates);
  for (long s : res.scores) EXPECT_NE(s, filter::kDroppedScore);
}

// select_top_k tie-breaking under filter drops: ties break by ORIGINAL
// index deterministically, and dropping tied candidates never re-orders
// the survivors. Sentinel scores must sort after every real score, so
// the trailing trim leaves exactly the surviving ranks.
TEST(FilterBoundaries, TopKTieBreakStableUnderDrops) {
  // Hand-built score vectors: indices 2, 5, 7 tie at 50.
  std::vector<long> scores = {10, 50, 50, 8, 40, 50, 0, 50, 30};
  const auto full = search::select_top_k(scores, 5);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_EQ(full[0].index, 1u);  // ties at 50: original-index order
  EXPECT_EQ(full[1].index, 2u);
  EXPECT_EQ(full[2].index, 5u);
  EXPECT_EQ(full[3].index, 7u);
  EXPECT_EQ(full[4].index, 4u);

  // Drop two of the tied candidates (filter sentinel): the remaining
  // ties keep their relative order; sentinels sort last and trim away.
  scores[2] = filter::kDroppedScore;
  scores[5] = filter::kDroppedScore;
  auto dropped = search::select_top_k(scores, 5);
  while (!dropped.empty() && dropped.back().score == filter::kDroppedScore)
    dropped.pop_back();
  ASSERT_EQ(dropped.size(), 5u);
  EXPECT_EQ(dropped[0].index, 1u);
  EXPECT_EQ(dropped[1].index, 7u);  // the surviving tie, same position
  EXPECT_EQ(dropped[2].index, 4u);
  EXPECT_EQ(dropped[3].index, 8u);
  EXPECT_EQ(dropped[4].index, 0u);

  // k larger than the survivor count: every sentinel lands at the tail
  // and trims to exactly the real candidates.
  std::vector<long> sparse = {filter::kDroppedScore, 3,
                              filter::kDroppedScore, 1};
  auto trimmed = search::select_top_k(sparse, 4);
  while (!trimmed.empty() && trimmed.back().score == filter::kDroppedScore)
    trimmed.pop_back();
  ASSERT_EQ(trimmed.size(), 2u);
  EXPECT_EQ(trimmed[0].index, 1u);
  EXPECT_EQ(trimmed[1].index, 3u);
}

// The k-entry heap selection against a full stable sort: over seeded
// score vectors with heavy ties and filter sentinels, and every k from
// empty past the vector's end, select_top_k is the first k of a stable
// sort by descending score (ties keep index order), and
// select_top_k_mapped is the same under a shuffled index map (ties by
// mapped index, hits keep the local index).
TEST(TopKBoundaries, HeapSelectionMatchesFullStableSort) {
  const auto expect_prefix = [](const std::vector<search::SearchHit>& got,
                                const std::vector<search::SearchHit>& sorted,
                                std::size_t k, const char* what) {
    ASSERT_EQ(got.size(), std::min(k, sorted.size())) << what << " k=" << k;
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].index, sorted[r].index) << what << " k=" << k
                                               << " rank " << r;
      EXPECT_EQ(got[r].score, sorted[r].score) << what << " k=" << k
                                               << " rank " << r;
    }
  };
  std::mt19937_64 rng(2024);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2},
                              std::size_t{37}, std::size_t{500}}) {
    for (int round = 0; round < 4; ++round) {
      // Six distinct values plus the sentinel: every rank boundary ties.
      std::vector<long> scores(n);
      for (long& s : scores) {
        const auto v = static_cast<long>(rng() % 7);
        s = v == 6 ? filter::kDroppedScore : v * 5;
      }
      std::vector<std::size_t> map(n);
      for (std::size_t i = 0; i < n; ++i) map[i] = i;
      std::shuffle(map.begin(), map.end(), rng);

      std::vector<search::SearchHit> plain;
      for (std::size_t i = 0; i < n; ++i) plain.push_back({i, scores[i]});
      std::stable_sort(plain.begin(), plain.end(),
                       [](const search::SearchHit& a,
                          const search::SearchHit& b) {
                         return a.score > b.score;
                       });
      // Mapped reference: stable sort in mapped-index order.
      std::vector<search::SearchHit> mapped(n);
      for (std::size_t i = 0; i < n; ++i) mapped[map[i]] = {i, scores[i]};
      std::stable_sort(mapped.begin(), mapped.end(),
                       [](const search::SearchHit& a,
                          const search::SearchHit& b) {
                         return a.score > b.score;
                       });

      for (const std::size_t k : {std::size_t{0}, std::size_t{1},
                                  std::size_t{10}, n - 1, n, n + 5}) {
        expect_prefix(search::select_top_k(scores, k), plain, k, "plain");
        expect_prefix(search::select_top_k_mapped(scores, k, map), mapped, k,
                      "mapped");
        expect_prefix(search::select_top_k_mapped(scores, k, {}), plain, k,
                      "identity map");
      }
    }
  }
}

}  // namespace
