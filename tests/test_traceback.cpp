// Traceback correctness: the reconstructed path must (a) score exactly
// what the score-only oracle reports, (b) re-score to its own claimed
// score when replayed step by step, (c) produce consistent coordinate
// ranges and CIGAR accounting, and (d) describe the same optimum as the
// SIMD kernel on every backend. Also covers the QC/MI measurement built
// on it (core/stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "core/stats.h"
#include "core/traceback.h"
#include "score/matrices.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

// Replays a CIGAR and recomputes the path score independently.
long rescore(const score::ScoreMatrix& m, const Penalties& pen,
             std::span<const std::uint8_t> q, std::span<const std::uint8_t> s,
             const core::Alignment& aln) {
  long score = 0;
  std::size_t qi = aln.query_begin, si = aln.subject_begin;
  std::size_t p = 0;
  while (p < aln.cigar.size()) {
    std::size_t cnt = 0;
    while (p < aln.cigar.size() &&
           std::isdigit(static_cast<unsigned char>(aln.cigar[p]))) {
      cnt = cnt * 10 + static_cast<std::size_t>(aln.cigar[p] - '0');
      ++p;
    }
    const char op = aln.cigar[p++];
    if (op == 'M') {
      for (std::size_t t = 0; t < cnt; ++t) score += m.at(s[si++], q[qi++]);
    } else if (op == 'I') {
      score -= pen.query.open + static_cast<long>(cnt) * pen.query.extend;
      qi += cnt;
    } else if (op == 'D') {
      score -= pen.subject.open + static_cast<long>(cnt) * pen.subject.extend;
      si += cnt;
    } else {
      ADD_FAILURE() << "bad op " << op;
    }
  }
  EXPECT_EQ(qi, aln.query_end);
  EXPECT_EQ(si, aln.subject_end);
  return score;
}

class TracebackProperty
    : public testing::TestWithParam<std::tuple<AlignKind, int>> {};

TEST_P(TracebackProperty, PathScoreMatchesOracle) {
  const AlignKind kind = std::get<0>(GetParam());
  const Penalties pen =
      test::test_penalties()[static_cast<std::size_t>(std::get<1>(GetParam()))];
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = kind;
  cfg.pen = pen;

  std::mt19937_64 rng(123 + std::get<1>(GetParam()));
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t mlen = 5 + static_cast<std::size_t>(iter) * 23;
    const auto q = test::random_protein(rng, mlen);
    const auto s = test::mutate(rng, q, 0.15 + 0.07 * iter, 0.04);

    const long oracle = core::align_sequential(m, cfg, q, s);
    const core::Alignment aln = core::align_traceback(m, cfg, q, s);
    ASSERT_EQ(aln.score, oracle) << "iter " << iter;
    if (kind == AlignKind::Local && oracle == 0) continue;
    ASSERT_EQ(rescore(m, pen, q, s, aln), aln.score) << "iter " << iter;

    // Coordinate sanity.
    EXPECT_LE(aln.query_end, q.size());
    EXPECT_LE(aln.subject_end, s.size());
    EXPECT_LE(aln.query_begin, aln.query_end);
    EXPECT_LE(aln.subject_begin, aln.subject_end);
    if (kind != AlignKind::Local) {
      // Boundary coverage follows the kind's free-overhang flags.
      if (!kind_row_free(kind)) {
        EXPECT_EQ(aln.query_begin, 0u);
      }
      if (!kind_end_col_free(kind)) {
        EXPECT_EQ(aln.query_end, q.size());
      }
      if (!kind_col_free(kind)) {
        EXPECT_EQ(aln.subject_begin, 0u);
      }
      if (!kind_end_row_free(kind)) {
        EXPECT_EQ(aln.subject_end, s.size());
      }
    }
    EXPECT_LE(aln.matches, aln.columns);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TracebackProperty,
    testing::Combine(testing::Values(AlignKind::Local, AlignKind::Global,
                                     AlignKind::SemiGlobal,
                                     AlignKind::SemiGlobalQuery,
                                     AlignKind::Overlap),
                     testing::Values(0, 1, 2, 3, 4)),
    [](const testing::TestParamInfo<std::tuple<AlignKind, int>>& pinfo) {
      std::string name = std::string(to_string(std::get<0>(pinfo.param))) +
                         "_pen" + std::to_string(std::get<1>(pinfo.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Traceback, EmptyLocalAlignment) {
  // All-mismatch pair under a harsh matrix: best local score is 0 and the
  // alignment is empty.
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = score::Alphabet::protein().encode("WWWW");
  const auto s = score::Alphabet::protein().encode("GGGG");
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  EXPECT_EQ(aln.score, 0);
  EXPECT_TRUE(aln.cigar.empty());
  EXPECT_EQ(aln.columns, 0u);
}

TEST(Traceback, PerfectMatchCigar) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = score::Alphabet::protein().encode("HEAGAWGHEE");
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, q);
  EXPECT_EQ(aln.cigar, "10M");
  EXPECT_EQ(aln.matches, 10u);
  EXPECT_EQ(aln.columns, 10u);
}

TEST(Traceback, RenderRowsShapes) {
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = alpha.encode("HEAGAWGHEE");
  const auto s = alpha.encode("HEAGWGHEE");  // one deletion
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  const core::AlignmentRows rows = core::render_alignment(alpha, q, s, aln);
  EXPECT_EQ(rows.query.size(), aln.columns);
  EXPECT_EQ(rows.subject.size(), aln.columns);
  EXPECT_EQ(rows.midline.size(), aln.columns);
  EXPECT_NE(rows.subject.find('-'), std::string::npos);
}

TEST(Traceback, MaxCellsGuard) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(1);
  const auto q = test::random_protein(rng, 100);
  AlignConfig cfg;
  core::TracebackOptions opt;
  opt.max_cells = 1000;
  EXPECT_THROW(core::align_traceback(m, cfg, q, q, opt),
               std::invalid_argument);
}

TEST(Traceback, MaxCellsBoundaryIsInclusive) {
  // A 9 x 9 pair needs exactly (9+1)*(9+1) = 100 direction cells.
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2);
  const auto q = test::random_protein(rng, 9);
  AlignConfig cfg;
  core::TracebackOptions opt;
  opt.max_cells = 100;
  EXPECT_NO_THROW(core::align_traceback(m, cfg, q, q, opt));
  opt.max_cells = 99;
  EXPECT_THROW(core::align_traceback(m, cfg, q, q, opt),
               std::invalid_argument);
}

TEST(Traceback, RejectsEmptySequence) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = score::Alphabet::protein().encode("HEAGAWGHEE");
  const std::vector<std::uint8_t> empty;
  AlignConfig cfg;
  EXPECT_THROW(core::align_traceback(m, cfg, empty, q), std::invalid_argument);
  EXPECT_THROW(core::align_traceback(m, cfg, q, empty), std::invalid_argument);
}

TEST(Traceback, CrossingGapKeepsOneDeletionRun) {
  // Ten extra subject residues in the middle: the optimal global path
  // opens one 10-long deletion rather than paying two gap opens.
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  const auto q = alpha.encode("HEAGAWGHEE");
  const auto s = alpha.encode("HEAGAPPPPPPPPPPWGHEE");
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  EXPECT_EQ(aln.score, core::align_sequential(m, cfg, q, s));
  EXPECT_EQ(rescore(m, cfg.pen, q, s, aln), aln.score);
  EXPECT_NE(aln.cigar.find("10D"), std::string::npos) << aln.cigar;
}

TEST(Traceback, SingleResidueEdges) {
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
        AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    for (const char* qs : {"A", "AW"}) {
      for (const char* ss : {"A", "WAW", "GGGGGGGG"}) {
        const auto q = alpha.encode(qs);
        const auto s = alpha.encode(ss);
        const core::Alignment aln = core::align_traceback(m, cfg, q, s);
        EXPECT_EQ(aln.score, core::align_sequential(m, cfg, q, s))
            << to_string(kind) << ": " << qs << " vs " << ss;
        if (kind == AlignKind::Local && aln.score == 0) continue;
        EXPECT_EQ(rescore(m, cfg.pen, q, s, aln), aln.score)
            << to_string(kind) << ": " << qs << " vs " << ss;
      }
    }
  }
}

TEST(Traceback, RenderRowsReplayCigar) {
  // Stripping the gap characters from each row must give back exactly the
  // aligned residue range, and the midline marks exactly the matches.
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(17);
  for (AlignKind kind : {AlignKind::Local, AlignKind::Global}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    for (int iter = 0; iter < 6; ++iter) {
      const auto q = test::random_protein(rng, 40 + iter * 13);
      const auto s = test::mutate(rng, q, 0.2, 0.1);
      const core::Alignment aln = core::align_traceback(m, cfg, q, s);
      const core::AlignmentRows rows = core::render_alignment(alpha, q, s, aln);

      std::string qrow = rows.query, srow = rows.subject;
      std::erase(qrow, '-');
      std::erase(srow, '-');
      const std::span<const std::uint8_t> qspan(q), sspan(s);
      EXPECT_EQ(qrow, test::decode(alpha, qspan.subspan(
                          aln.query_begin, aln.query_end - aln.query_begin)));
      EXPECT_EQ(srow, test::decode(alpha, sspan.subspan(
                          aln.subject_begin,
                          aln.subject_end - aln.subject_begin)));
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(rows.midline.begin(), rows.midline.end(), '|')),
                aln.matches);
    }
  }
}

// A larger global pair than the property sweep reaches, per penalty set.
class TracebackLongGlobal : public testing::TestWithParam<int> {};

TEST_P(TracebackLongGlobal, ScoreMatchesOracle) {
  const Penalties pen =
      test::test_penalties()[static_cast<std::size_t>(GetParam())];
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Global;
  cfg.pen = pen;

  std::mt19937_64 rng(31 + GetParam());
  const auto q = test::random_protein(rng, 1200);
  const auto s = test::mutate(rng, q, 0.2, 0.05);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  ASSERT_EQ(aln.score, core::align_sequential(m, cfg, q, s));
  EXPECT_EQ(rescore(m, pen, q, s, aln), aln.score);
  EXPECT_EQ(aln.query_begin, 0u);
  EXPECT_EQ(aln.query_end, q.size());
  EXPECT_EQ(aln.subject_begin, 0u);
  EXPECT_EQ(aln.subject_end, s.size());
  EXPECT_GE(aln.columns, std::max(q.size(), s.size()));
}

INSTANTIATE_TEST_SUITE_P(Pens, TracebackLongGlobal,
                         testing::Values(0, 1, 2, 3, 4),
                         [](const testing::TestParamInfo<int>& pinfo) {
                           return "pen" + std::to_string(pinfo.param);
                         });

// The tools print a kernel score next to a traceback-derived path
// (aalign_search's QC/MI columns, the Fig. 10 harness, the examples), so
// both must describe the same optimum on every backend.
class TracebackAgreesWithKernel
    : public testing::TestWithParam<simd::IsaKind> {
 protected:
  core::QueryOptions backend() const {
    core::QueryOptions opt;
    opt.isa = GetParam();
    return opt;
  }
};

TEST_P(TracebackAgreesWithKernel, LocalPathOnPlantedIsland) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  PairAligner aligner(m, cfg, backend());

  seq::SequenceGenerator gen(90);
  std::mt19937_64 rng(91);
  for (int iter = 0; iter < 10; ++iter) {
    // A homologous island buried deep in a long random subject.
    const seq::Sequence qs = gen.protein(150);
    const auto query = score::Alphabet::protein().encode(qs.residues);
    const auto island = score::Alphabet::protein().encode(
        seq::make_similar_subject(gen, qs, {seq::Level::Hi, seq::Level::Hi})
            .residues);
    std::vector<std::uint8_t> subject = test::random_protein(rng, 1200);
    const std::size_t insert_at = 400 + static_cast<std::size_t>(iter) * 40;
    subject.insert(subject.begin() + static_cast<long>(insert_at),
                   island.begin(), island.end());

    aligner.set_query(query);
    const AlignResult kernel = aligner.align(subject);
    ASSERT_FALSE(kernel.saturated);
    const core::Alignment aln = core::align_traceback(m, cfg, query, subject);
    ASSERT_EQ(aln.score, kernel.score) << "iter " << iter;
    ASSERT_EQ(rescore(m, cfg.pen, query, subject, aln), aln.score);
    EXPECT_GE(aln.subject_begin, insert_at - 50);
    EXPECT_LE(aln.subject_end, insert_at + island.size() + 50);
  }
}

TEST_P(TracebackAgreesWithKernel, NoPositiveScoreIsEmpty) {
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const auto q = alpha.encode("WWWW");
  const auto s = alpha.encode("GGGG");
  EXPECT_EQ(align_pair(m, cfg, q, s, backend()).score, 0);
  const core::Alignment aln = core::align_traceback(m, cfg, q, s);
  EXPECT_EQ(aln.score, 0);
  EXPECT_TRUE(aln.cigar.empty());
}

TEST_P(TracebackAgreesWithKernel, AsymmetricPenaltiesEveryKind) {
  const auto& m = score::ScoreMatrix::blosum62();
  const Penalties pen{{12, 2}, {8, 3}};
  std::mt19937_64 rng(92);
  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
        AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = pen;
    PairAligner aligner(m, cfg, backend());
    for (int iter = 0; iter < 6; ++iter) {
      const auto q = test::random_protein(rng, 60 + iter * 21);
      const auto s = test::mutate(rng, q, 0.3, 0.08);
      aligner.set_query(q);
      const AlignResult kernel = aligner.align(s);
      ASSERT_FALSE(kernel.saturated);
      const core::Alignment aln = core::align_traceback(m, cfg, q, s);
      EXPECT_EQ(aln.score, kernel.score)
          << to_string(kind) << " iter " << iter;
      if (kind == AlignKind::Local && aln.score == 0) continue;
      EXPECT_EQ(rescore(m, pen, q, s, aln), aln.score)
          << to_string(kind) << " iter " << iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TracebackAgreesWithKernel,
                         testing::ValuesIn(test::available_isas()),
                         [](const testing::TestParamInfo<simd::IsaKind>& i) {
                           return std::string(simd::isa_name(i.param));
                         });

TEST(Similarity, RatiosFromAlignment) {
  core::Alignment aln;
  aln.query_begin = 10;
  aln.query_end = 40;
  aln.matches = 15;
  aln.columns = 30;
  const core::SimilarityStats st = core::similarity_from_alignment(aln, 60);
  EXPECT_DOUBLE_EQ(st.query_coverage, 0.5);
  EXPECT_DOUBLE_EQ(st.max_identity, 0.5);
  // Degenerate denominators measure zero instead of dividing by zero.
  const core::SimilarityStats none =
      core::similarity_from_alignment(core::Alignment{}, 0);
  EXPECT_EQ(none.query_coverage, 0.0);
  EXPECT_EQ(none.max_identity, 0.0);
}

TEST(Similarity, IdenticalPairIsFullCoverageAndIdentity) {
  std::mt19937_64 rng(5);
  const auto q = test::random_protein(rng, 80);
  const core::SimilarityStats st =
      core::measure_similarity(score::ScoreMatrix::blosum62(), q, q);
  EXPECT_DOUBLE_EQ(st.query_coverage, 1.0);
  EXPECT_DOUBLE_EQ(st.max_identity, 1.0);
}

TEST(Similarity, NoLocalHitMeasuresZero) {
  const auto& alpha = score::Alphabet::protein();
  const core::SimilarityStats st = core::measure_similarity(
      score::ScoreMatrix::blosum62(), alpha.encode("WWWW"),
      alpha.encode("GGGG"));
  EXPECT_EQ(st.query_coverage, 0.0);
  EXPECT_EQ(st.max_identity, 0.0);
}

TEST(Similarity, QueryCopiedIntoLongSubjectIsFullyCovered) {
  std::mt19937_64 rng(6);
  const auto q = test::random_protein(rng, 100);
  std::vector<std::uint8_t> s = test::random_protein(rng, 1000);
  s.insert(s.begin() + 450, q.begin(), q.end());
  const core::SimilarityStats st =
      core::measure_similarity(score::ScoreMatrix::blosum62(), q, s);
  EXPECT_DOUBLE_EQ(st.query_coverage, 1.0);
  EXPECT_DOUBLE_EQ(st.max_identity, 1.0);
}

}  // namespace
