// Multi-threaded database search: scores must be identical to aligning
// each subject serially, independent of thread count, strategy, or
// database ordering; top-k must be correctly ranked.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "baselines/swaphi_like.h"
#include "baselines/swps3_like.h"
#include "core/sequential.h"
#include "search/database_search.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 120.0) {
  seq::SequenceGenerator gen(seed);
  return seq::Database(score::Alphabet::protein(),
                       gen.protein_database(count, median_len, 0.5, 20, 600));
}

TEST(DatabaseSearch, MatchesSerialOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(21);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(150).residues);

  seq::Database db = make_db(22, 120);
  // Plant two strong hits.
  {
    seq::SequenceGenerator g2(23);
    seq::Sequence q;
    q.residues = score::Alphabet::protein().decode(query);
    const auto hit1 = seq::make_similar_subject(
        g2, q, {seq::Level::Hi, seq::Level::Hi});
    const auto hit2 = seq::make_similar_subject(
        g2, q, {seq::Level::Md, seq::Level::Hi});
    db.add(seq::encode(score::Alphabet::protein(), hit1));
    db.add(seq::encode(score::Alphabet::protein(), hit2));
  }

  search::SearchOptions opt;
  opt.threads = 4;
  opt.top_k = 5;
  search::DatabaseSearch search(m, cfg, opt);
  const search::SearchResult res = search.search(query, db);

  ASSERT_EQ(res.scores.size(), db.size());
  // scores are indexed by ORIGINAL database position even though the
  // search length-sorted db in place.
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, db.by_original(i).view()))
        << "subject " << i;
  }

  // top-k is the true k best, descending.
  std::vector<long> sorted(res.scores);
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_EQ(res.top.size(), 5u);
  for (std::size_t k = 0; k < res.top.size(); ++k) {
    EXPECT_EQ(res.top[k].score, sorted[k]);
    EXPECT_EQ(res.scores[res.top[k].index], res.top[k].score);
  }
  EXPECT_GT(res.gcups, 0.0);
  EXPECT_EQ(res.cells, query.size() * db.total_residues());
}

TEST(DatabaseSearch, ThreadCountInvariance) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(31);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(90).residues);

  std::vector<long> first;
  for (int threads : {1, 3, 8}) {
    seq::Database db = make_db(32, 80);
    search::SearchOptions opt;
    opt.threads = threads;
    search::DatabaseSearch search(m, cfg, opt);
    const auto res = search.search(query, db);
    if (first.empty()) {
      first = res.scores;
    } else {
      EXPECT_EQ(res.scores, first) << "threads=" << threads;
    }
  }
}

TEST(DatabaseSearch, StrategiesAgree) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(41);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(200).residues);

  std::vector<long> reference;
  for (Strategy s : {Strategy::StripedIterate, Strategy::StripedScan,
                     Strategy::Hybrid}) {
    seq::Database db = make_db(42, 60);
    search::SearchOptions opt;
    opt.threads = 2;
    opt.query.strategy = s;
    search::DatabaseSearch search(m, cfg, opt);
    const auto res = search.search(query, db);
    if (reference.empty()) {
      reference = res.scores;
    } else {
      EXPECT_EQ(res.scores, reference) << to_string(s);
    }
  }
}

TEST(DatabaseSearch, SearchManyMatchesIndividualSearches) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(71);
  std::vector<std::vector<std::uint8_t>> queries;
  for (std::size_t len : {60, 120, 200}) {
    queries.push_back(
        score::Alphabet::protein().encode(gen.protein(len).residues));
  }

  seq::Database db = make_db(72, 60);
  search::SearchOptions opt;
  opt.threads = 3;
  search::DatabaseSearch engine(m, cfg, opt);

  const auto many = engine.search_many(queries, db);
  ASSERT_EQ(many.size(), queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    seq::Database db2 = db;
    const auto single = engine.search(queries[qi], db2);
    EXPECT_EQ(many[qi].scores, single.scores) << "query " << qi;
  }
}

// DatabaseSearch holds no per-call state (each call builds its own
// scheduler), so one const instance serves concurrent callers, each with
// its own database copy, and every caller sees the serial oracle's result.
TEST(DatabaseSearch, ConcurrentCallsOnSharedInstanceMatchOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(81);
  std::vector<std::vector<std::uint8_t>> queries;
  for (std::size_t len : {70, 110, 160}) {
    queries.push_back(
        score::Alphabet::protein().encode(gen.protein(len).residues));
  }

  const seq::Database db = make_db(82, 50);
  search::SearchOptions opt;
  opt.threads = 2;
  opt.top_k = 4;
  const search::DatabaseSearch engine(m, cfg, opt);

  std::vector<search::SearchResult> got(queries.size());
  std::vector<std::thread> callers;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    callers.emplace_back([&, qi] {
      seq::Database mine = db;
      got[qi] = engine.search(queries[qi], mine);
    });
  }
  for (std::thread& t : callers) t.join();

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    seq::Database ref_db = db;
    const search::SearchResult ref =
        test::serial_search(m, cfg, opt, queries[qi], ref_db);
    EXPECT_EQ(got[qi].scores, ref.scores) << "query " << qi;
    ASSERT_EQ(got[qi].top.size(), ref.top.size()) << "query " << qi;
    for (std::size_t k = 0; k < ref.top.size(); ++k) {
      EXPECT_EQ(got[qi].top[k].index, ref.top[k].index) << "query " << qi;
      EXPECT_EQ(got[qi].top[k].score, ref.top[k].score) << "query " << qi;
    }
  }
}

TEST(Baselines, Swps3AndSwaphiMatchOracleScores) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(51);
  seq::Sequence qseq = gen.protein(130);
  const auto query = score::Alphabet::protein().encode(qseq.residues);

  // Include a near-identical subject to force the SWPS3 8->16 promotion.
  seq::Database db = make_db(52, 50);
  {
    seq::SequenceGenerator g2(53);
    db.add(seq::encode(
        score::Alphabet::protein(),
        seq::make_similar_subject(g2, qseq,
                                  {seq::Level::Hi, seq::Level::Hi})));
  }

  baselines::Swps3Like swps3(m, cfg.pen, {}, 2);
  seq::Database db1 = db;
  const auto r1 = swps3.search(query, db1);
  ASSERT_EQ(r1.scores.size(), db1.size());
  // Original-indexed despite the length sort, like SwaphiLike below.
  for (std::size_t i = 0; i < db1.size(); ++i) {
    EXPECT_EQ(r1.scores[i],
              core::align_sequential(m, cfg, query, db1.by_original(i).view()));
  }
  EXPECT_GE(r1.promotions, 1u);  // the planted hit overflowed int8
  // The planted homolog (added last) ranks first, at its original index.
  ASSERT_FALSE(r1.top.empty());
  EXPECT_EQ(r1.top.front().index, db.size() - 1);
  const auto want_top = search::select_top_k(r1.scores, 10);
  ASSERT_EQ(r1.top.size(), want_top.size());
  for (std::size_t h = 0; h < want_top.size(); ++h) {
    EXPECT_EQ(r1.top[h].index, want_top[h].index);
    EXPECT_EQ(r1.top[h].score, want_top[h].score);
  }

  baselines::SwaphiLike swaphi(m, cfg.pen, {}, 2);
  seq::Database db2 = db;
  const auto r2 = swaphi.search(query, db2);
  // SwaphiLike wraps DatabaseSearch: scores come back original-indexed.
  for (std::size_t i = 0; i < db2.size(); ++i) {
    EXPECT_EQ(r2.scores[i],
              core::align_sequential(m, cfg, query, db2.by_original(i).view()));
  }
}

}  // namespace
