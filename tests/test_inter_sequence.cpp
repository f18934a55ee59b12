// Inter-sequence vectorization: per-lane independence, batch padding, and
// tail handling must all preserve exact agreement with the sequential
// oracle for every subject in the database.
#include <gtest/gtest.h>

#include <random>

#include "core/inter_engine.h"
#include "core/sequential.h"
#include "search/inter_search.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

search::SearchOptions inter_opt(simd::IsaKind isa, int threads) {
  search::SearchOptions opt;
  opt.threads = threads;
  opt.query.isa = isa;
  return opt;
}

class InterSequence : public testing::TestWithParam<simd::IsaKind> {};

TEST_P(InterSequence, MatchesOracleOnMixedLengthDatabase) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  seq::SequenceGenerator gen(61);
  const seq::Sequence qseq = gen.protein(120, "Q");
  const auto query = score::Alphabet::protein().encode(qseq.residues);

  // Deliberately awkward database size (not a lane multiple) with wildly
  // mixed lengths and one strong homolog.
  std::vector<seq::Sequence> seqs =
      gen.protein_database(45, 80.0, 0.8, 5, 700);
  seqs.push_back(
      seq::make_similar_subject(gen, qseq, {seq::Level::Hi, seq::Level::Hi}));
  const seq::Database db(score::Alphabet::protein(), seqs);

  search::InterSequenceSearch inter(m, pen, inter_opt(isa, 2));
  const search::SearchResult res = inter.search(query, db);
  ASSERT_EQ(res.scores.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(res.scores[i],
              core::align_sequential(m, cfg, query, db.by_original(i).view()))
        << "subject " << i << " len " << db.by_original(i).size();
  }
}

TEST_P(InterSequence, SingleSubjectBatch) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen{{12, 2}, {8, 3}};  // asymmetric
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  std::mt19937_64 rng(62);
  const auto query = test::random_protein(rng, 70);

  const seq::Database db(
      m.alphabet(),
      {test::sequence(m.alphabet(), "only", test::random_protein(rng, 33))});

  search::InterSequenceSearch inter(m, pen, inter_opt(isa, 1));
  const auto res = inter.search(query, db);
  ASSERT_EQ(res.scores.size(), 1u);
  EXPECT_EQ(res.scores[0],
            core::align_sequential(m, cfg, query, db[0].view()));
}

TEST_P(InterSequence, AgreesWithIntraSequenceSearch) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  seq::SequenceGenerator gen(63);
  const auto query =
      score::Alphabet::protein().encode(gen.protein(150).residues);
  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(70, 100.0));

  search::InterSequenceSearch inter(m, pen, inter_opt(isa, 2));
  seq::Database db1 = db;
  const auto r_inter = inter.search(query, db1);

  search::SearchOptions opt;
  opt.threads = 2;
  opt.query.isa = isa;
  search::DatabaseSearch intra(m, cfg, opt);
  seq::Database db2 = db;
  const auto r_intra = intra.search(query, db2);

  EXPECT_EQ(r_inter.scores, r_intra.scores);
}

// Seeded random protein matrix with at(a, b) != at(b, a) for every a != b
// and a positive diagonal, so homologs score high enough to climb the
// precision ladder. A kernel that read the matrix transposed would
// disagree with the oracle.
score::ScoreMatrix asymmetric_protein_matrix(std::uint64_t seed) {
  const score::Alphabet& alpha = score::Alphabet::protein();
  const int n = alpha.size();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> off(-6, 5);
  std::uniform_int_distribution<int> diag(4, 11);
  std::vector<std::int8_t> v(static_cast<std::size_t>(n) * n);
  const auto at = [&](int a, int b) -> std::int8_t& {
    return v[static_cast<std::size_t>(a) * n + b];
  };
  for (int a = 0; a < n; ++a) {
    at(a, a) = static_cast<std::int8_t>(diag(rng));
    for (int b = 0; b < a; ++b) {
      at(a, b) = static_cast<std::int8_t>(off(rng));
      at(b, a) = static_cast<std::int8_t>(off(rng));
      if (at(a, b) == at(b, a)) ++at(b, a);
    }
  }
  return score::ScoreMatrix(alpha, "ASYM", v);
}

TEST_P(InterSequence, AsymmetricMatrixMatchesOracleAtEveryStartWidth) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const score::ScoreMatrix m = asymmetric_protein_matrix(1729);
  for (int a = 0; a < m.size(); ++a) {
    for (int b = 0; b < a; ++b) ASSERT_NE(m.at(a, b), m.at(b, a));
  }
  const Penalties pen = Penalties::symmetric(10, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  seq::SequenceGenerator gen(83);
  const seq::Sequence qseq = gen.protein(150, "Q");
  const auto query = score::Alphabet::protein().encode(qseq.residues);
  std::vector<seq::Sequence> seqs =
      gen.protein_database(70, 120.0, 0.8, 5, 600);
  for (int i = 0; i < 3; ++i) {
    seqs.push_back(seq::make_similar_subject(
        gen, qseq, {seq::Level::Hi, seq::Level::Hi}));
  }
  const seq::Database db(score::Alphabet::protein(), seqs);
  std::vector<long> expect(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    expect[i] =
        core::align_sequential(m, cfg, query, db.by_original(i).view());
  }

  for (const ScoreWidth w :
       {ScoreWidth::Auto, ScoreWidth::W16, ScoreWidth::W32}) {
    SCOPED_TRACE(to_string(w));
    search::SearchOptions opt = inter_opt(isa, 2);
    opt.query.width = w;
    search::InterSequenceSearch inter(m, pen, opt);
    const search::SearchResult res = inter.search(query, db);
    ASSERT_EQ(res.scores.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(res.scores[i], expect[i]) << "subject " << i;
    }
  }
}

// A subject byte at or past the alphabet size must throw from the lane
// fill before any column profile is built from it, at every start tier
// and wherever in the batch the bad subject lands.
TEST_P(InterSequence, RejectsSubjectSymbolOutsideAlphabet) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  std::mt19937_64 rng(25);
  const auto query = test::random_protein(rng, 60);
  for (const int bad : {m.size(), 200, 255}) {
    // The protein letters, with every other character encoded as `bad`.
    const score::Alphabet with_bad(score::AlphabetKind::Protein,
                                   "ARNDCQEGHILKMFPSTWYVBZX*", bad);
    std::vector<seq::Sequence> subjects;
    for (int i = 0; i < 70; ++i) {
      subjects.push_back(test::sequence(
          m.alphabet(), std::to_string(i),
          test::random_protein(rng, 20 + i % 40)));
    }
    subjects[33].residues[5] = '?';
    const seq::Database db(with_bad, subjects);
    for (const ScoreWidth w :
         {ScoreWidth::Auto, ScoreWidth::W16, ScoreWidth::W32}) {
      search::SearchOptions opt = inter_opt(isa, 2);
      opt.query.width = w;
      const search::InterSequenceSearch inter(m, pen, opt);
      EXPECT_THROW((void)inter.search(query, db), std::invalid_argument)
          << to_string(w) << " byte " << bad;
    }
    auto bad_query = query;
    bad_query[7] = static_cast<std::uint8_t>(bad);
    const search::InterSequenceSearch inter(m, pen, inter_opt(isa, 1));
    EXPECT_THROW((void)inter.search(bad_query, db), std::invalid_argument)
        << "query byte " << bad;
  }
}

// The 40-letter matrix: the pad symbol is past the 32-entry register
// lookup, so every backend fills its column profiles lane by lane.
TEST_P(InterSequence, FortyLetterAlphabetMatchesOracle) {
  const simd::IsaKind isa = GetParam();
  if (core::get_inter_engine(isa) == nullptr) GTEST_SKIP();

  const score::ScoreMatrix& m = test::matrix40();
  const Penalties pen = Penalties::symmetric(6, 2);
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;
  std::mt19937_64 rng(40);
  const auto query = test::random_symbols(rng, 120, 40);
  std::vector<seq::Sequence> subjects;
  for (int i = 0; i < 75; ++i) {
    subjects.push_back(test::sequence(
        m.alphabet(), std::to_string(i),
        i % 10 == 0 ? test::mutate(rng, query, 0.1, 0.02)
                    : test::random_symbols(rng, 10 + (i * 37) % 300, 40)));
  }
  const seq::Database db(m.alphabet(), subjects);
  for (const ScoreWidth w :
       {ScoreWidth::Auto, ScoreWidth::W16, ScoreWidth::W32}) {
    search::SearchOptions opt = inter_opt(isa, 2);
    opt.query.width = w;
    const search::InterSequenceSearch inter(m, pen, opt);
    const search::SearchResult res = inter.search(query, db);
    ASSERT_EQ(res.scores.size(), db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(res.scores[i],
                core::align_sequential(m, cfg, query,
                                       db.by_original(i).view()))
          << to_string(w) << " subject " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, InterSequence,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

}  // namespace
