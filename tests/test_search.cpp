// Multi-threaded database search: scores must be identical to aligning
// each subject serially, independent of thread count, strategy, or
// database ordering; top-k must be correctly ranked.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <thread>

#include "core/engine.h"
#include "core/sequential.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

std::vector<seq::Sequence> make_seqs(std::uint64_t seed, std::size_t count,
                                     double median_len = 120.0) {
  seq::SequenceGenerator gen(seed);
  return gen.protein_database(count, median_len, 0.5, 20, 600);
}

seq::Database make_db(std::uint64_t seed, std::size_t count,
                      double median_len = 120.0) {
  return seq::Database(score::Alphabet::protein(),
                       make_seqs(seed, count, median_len));
}

TEST(DatabaseSearch, MatchesSerialOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(21);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(150).residues);

  std::vector<seq::Sequence> seqs = make_seqs(22, 120);
  // Plant two strong hits.
  {
    seq::SequenceGenerator g2(23);
    seq::Sequence q;
    q.residues = test::decode(score::Alphabet::protein(), query);
    seqs.push_back(seq::make_similar_subject(
        g2, q, {seq::Level::Hi, seq::Level::Hi}));
    seqs.push_back(seq::make_similar_subject(
        g2, q, {seq::Level::Md, seq::Level::Hi}));
  }
  const seq::Database db(score::Alphabet::protein(), seqs);

  search::SearchOptions opt;
  opt.threads = 4;
  opt.top_k = 5;
  search::DatabaseSearch search(m, cfg, opt);
  const search::SearchResult res = search.search(query, db);

  ASSERT_EQ(res.scores.size(), db.size());
  // scores are indexed by ORIGINAL database position even though db
  // stores its subjects longest first.
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, db.by_original(i).view()))
        << "subject " << i;
  }

  // top-k is the true k best, descending.
  std::vector<std::int32_t> sorted(res.scores);
  std::sort(sorted.rbegin(), sorted.rend());
  ASSERT_EQ(res.top.size(), 5u);
  for (std::size_t k = 0; k < res.top.size(); ++k) {
    EXPECT_EQ(res.top[k].score, sorted[k]);
    EXPECT_EQ(res.scores[res.top[k].index], res.top[k].score);
  }
  EXPECT_GT(res.gcups, 0.0);
  EXPECT_EQ(res.cells, query.size() * db.total_residues());
}

TEST(DatabaseSearch, ReportsSaturatedSubjects) {
  // A search forced to int8 clips every local score that reaches the rail;
  // the planted homolog of a 150-residue query scores far past it. The
  // result counts exactly the subjects whose true score is within
  // kRailMargin of the int8 maximum, and Auto reports none.
  const auto& m = score::ScoreMatrix::blosum62();
  const AlignConfig cfg;  // local
  seq::SequenceGenerator gen(91);
  const seq::Sequence q = gen.protein(150);
  const auto query = score::Alphabet::protein().encode(q.residues);
  std::vector<seq::Sequence> seqs = make_seqs(92, 60);
  seqs.push_back(
      seq::make_similar_subject(gen, q, {seq::Level::Hi, seq::Level::Hi}));
  const seq::Database db(score::Alphabet::protein(), seqs);
  const long homolog_score = core::align_sequential(
      m, cfg, query, db.by_original(db.size() - 1).view());
  ASSERT_GT(homolog_score, std::numeric_limits<std::int8_t>::max());

  std::uint64_t near_rail = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const long exact =
        core::align_sequential(m, cfg, query, db.by_original(i).view());
    if (exact >= std::numeric_limits<std::int8_t>::max() - kRailMargin) {
      ++near_rail;
    }
  }

  for (simd::IsaKind isa : test::available_isas()) {
    if (!core::get_engine<std::int8_t>(isa)) continue;
    search::SearchOptions opt;
    opt.threads = 2;
    opt.query.isa = isa;
    opt.query.width = ScoreWidth::W8;
    const search::SearchResult forced =
        search::DatabaseSearch(m, cfg, opt).search(query, db);
    EXPECT_EQ(forced.saturated, near_rail) << simd::isa_name(isa);
    opt.query.width = ScoreWidth::Auto;
    const search::SearchResult adaptive =
        search::DatabaseSearch(m, cfg, opt).search(query, db);
    EXPECT_EQ(adaptive.saturated, 0u) << simd::isa_name(isa);
    EXPECT_EQ(adaptive.top.front().score, homolog_score)
        << simd::isa_name(isa);
  }
}

TEST(DatabaseSearch, ThreadCountInvariance) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(31);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(90).residues);

  std::vector<std::int32_t> first;
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

  std::vector<std::int32_t> reference;
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

// Searches only read the database, so two threads may search one
// FASTA-built database at once (the stress label runs this under TSan).
TEST(DatabaseSearch, ConcurrentSearchesShareOneDatabase) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  seq::SequenceGenerator gen(85);
  std::vector<std::vector<std::uint8_t>> queries;
  for (std::size_t len : {90, 140}) {
    queries.push_back(
        score::Alphabet::protein().encode(gen.protein(len).residues));
  }
  const seq::Database db = make_db(86, 60);
  ASSERT_TRUE(db.permuted());

  search::SearchOptions opt;
  opt.threads = 2;
  opt.top_k = 4;
  const search::DatabaseSearch engine(m, cfg, opt);
  std::vector<search::SearchResult> got(queries.size());
  std::vector<std::thread> callers;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    callers.emplace_back(
        [&, qi] { got[qi] = engine.search(queries[qi], db); });
  }
  for (std::thread& t : callers) t.join();

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const search::SearchResult ref =
        test::serial_search(m, cfg, opt, queries[qi], db);
    EXPECT_EQ(got[qi].scores, ref.scores) << "query " << qi;
    ASSERT_EQ(got[qi].top.size(), ref.top.size()) << "query " << qi;
    for (std::size_t k = 0; k < ref.top.size(); ++k) {
      EXPECT_EQ(got[qi].top[k].index, ref.top[k].index) << "query " << qi;
      EXPECT_EQ(got[qi].top[k].score, ref.top[k].score) << "query " << qi;
    }
  }
}

// The two Fig. 11 comparators are DatabaseSearch configurations
// (bench/fig11_database_tools.cpp): SWPS3 is char->short striped-iterate on
// SSE4.1 (the Auto ladder), SWAPHI is int32 striped-iterate on the 512-bit
// backend. Both must return oracle scores, including for a subject above
// the int16 rail that SWPS3 itself would clip.
TEST(Baselines, Swps3AndSwaphiMatchOracleScores) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // A random 130-residue head and a 3100-residue tryptophan tail: the
  // identical tail scores 3100 * 11 = 34100, above the int16 rail.
  seq::SequenceGenerator gen(51);
  seq::Sequence qseq = gen.protein(130);
  const std::string tail(3100, 'W');
  const auto query = score::Alphabet::protein().encode(qseq.residues + tail);

  // A near-identical subject of the head forces the 8->16 promotion.
  std::vector<seq::Sequence> seqs = make_seqs(52, 50);
  seqs.push_back({"giant", tail});
  {
    seq::SequenceGenerator g2(53);
    seqs.push_back(seq::make_similar_subject(
        g2, qseq, {seq::Level::Hi, seq::Level::Hi}));
  }
  const seq::Database db(score::Alphabet::protein(), seqs);
  const std::size_t giant = db.size() - 2;
  const std::size_t homolog = db.size() - 1;

  std::vector<std::int32_t> oracle;
  for (std::size_t i = 0; i < db.size(); ++i) {
    oracle.push_back(
        core::align_sequential(m, cfg, query, db.by_original(i).view()));
  }
  ASSERT_GT(oracle[giant], std::numeric_limits<std::int16_t>::max());

  const auto tool = [](simd::IsaKind isa, ScoreWidth width) {
    search::SearchOptions opt;
    opt.threads = 2;
    opt.query.strategy = Strategy::StripedIterate;
    if (simd::isa_available(isa)) opt.query.isa = isa;
    opt.query.width = width;
    return opt;
  };
  const auto check = [&](const search::SearchOptions& opt) {
    SCOPED_TRACE(simd::isa_name(opt.query.isa));
    seq::Database dbc = db;
    const auto res = search::DatabaseSearch(m, cfg, opt).search(query, dbc);
    // Original-indexed despite the longest-first storage.
    EXPECT_EQ(res.scores, oracle);
    // The giant ranks first, the planted homolog right after it.
    EXPECT_EQ(res.top.size(), opt.top_k);
    const auto want_top = search::select_top_k(res.scores, opt.top_k);
    EXPECT_EQ(want_top[0].index, giant);
    EXPECT_EQ(want_top[1].index, homolog);
    for (std::size_t h = 0; h < std::min(res.top.size(), want_top.size());
         ++h) {
      EXPECT_EQ(res.top[h].index, want_top[h].index);
      EXPECT_EQ(res.top[h].score, want_top[h].score);
    }
    return res.promotions;
  };
  // SWPS3: the homolog overflows int8, the giant int8 and int16.
  EXPECT_GE(check(tool(simd::IsaKind::Sse41, ScoreWidth::Auto)), 3u);
  // SWAPHI: one exact int32 pass.
  EXPECT_EQ(check(tool(simd::IsaKind::Avx512, ScoreWidth::W32)), 0u);
}

}  // namespace
