// Hybrid-strategy behaviour (paper Sec. V-B): it must (a) stay correct
// while switching, (b) actually switch to scan on similar inputs, (c)
// effectively fall back to iterate on linear-gap and dissimilar inputs,
// (d) probe back from scan mode, and (e) respect its knobs.
#include <gtest/gtest.h>

#include <random>

#include "core/aligner.h"
#include "core/sequential.h"
#include "seq/generator.h"
#include "seq/pairgen.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

struct Fixture {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen{1234};
  seq::Sequence qseq = gen.protein(1200, "Q");
  std::vector<std::uint8_t> query =
      score::Alphabet::protein().encode(qseq.residues);
  std::vector<std::uint8_t> similar = score::Alphabet::protein().encode(
      seq::make_similar_subject(gen, qseq, {seq::Level::Hi, seq::Level::Hi})
          .residues);
  std::vector<std::uint8_t> dissimilar =
      score::Alphabet::protein().encode(gen.protein(1200).residues);
};

AlignResult run_hybrid(Fixture& f, AlignConfig cfg,
                       std::span<const std::uint8_t> subject,
                       HybridParams hp = {}) {
  core::QueryOptions opt;
  opt.strategy = Strategy::Hybrid;
  opt.width = ScoreWidth::W32;
  opt.hybrid = hp;
  PairAligner al(f.matrix, cfg, opt);
  al.set_query(f.query);
  return al.align(subject);
}

TEST(Hybrid, SwitchesToScanOnSimilarAffineInput) {
  Fixture f;
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  HybridParams hp;
  hp.threshold = 0.3;
  hp.window = 4;
  hp.stride = 32;
  const AlignResult r = run_hybrid(f, cfg, f.similar, hp);
  EXPECT_GT(r.stats.switches, 0u);
  EXPECT_GT(r.stats.scan_columns, 0u);
  EXPECT_GT(r.stats.iterate_columns, 0u);  // starts in iterate
  EXPECT_EQ(r.stats.columns,
            r.stats.scan_columns + r.stats.iterate_columns);
  // Correctness while switching.
  EXPECT_EQ(r.score, core::align_sequential(f.matrix, cfg, f.query,
                                            f.similar));
}

TEST(Hybrid, StaysInIterateOnDissimilarInput) {
  Fixture f;
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Default (calibrated) parameters: random-vs-random should essentially
  // never cross the threshold.
  const AlignResult r = run_hybrid(f, cfg, f.dissimilar);
  EXPECT_EQ(r.stats.scan_columns, 0u);
  EXPECT_EQ(r.stats.switches, 0u);
}

TEST(Hybrid, LinearGapFallsBackToIterate) {
  Fixture f;
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(0, 4);

  // Even on the similar pair: the paper observes linear-gap iterate needs
  // very few re-computations, so hybrid should ride iterate.
  const AlignResult r = run_hybrid(f, cfg, f.similar);
  EXPECT_EQ(r.stats.scan_columns, 0u);
}

TEST(Hybrid, ProbesBackFromScanMode) {
  Fixture f;
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Tiny stride forces many probe cycles on a similar input: switches
  // must come in pairs (to scan, back to iterate probe).
  HybridParams hp;
  hp.threshold = 0.2;
  hp.window = 2;
  hp.stride = 8;
  const AlignResult r = run_hybrid(f, cfg, f.similar, hp);
  EXPECT_GE(r.stats.switches, 2u);
  EXPECT_GT(r.stats.iterate_columns, hp.window);  // probed after scan
  EXPECT_EQ(r.score,
            core::align_sequential(f.matrix, cfg, f.query, f.similar));
}

TEST(Hybrid, ThresholdExtremes) {
  Fixture f;
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  // Infinite threshold: pure iterate.
  HybridParams never;
  never.threshold = 1e9;
  const AlignResult r_never = run_hybrid(f, cfg, f.similar, never);
  EXPECT_EQ(r_never.stats.scan_columns, 0u);

  // Zero threshold: switches to scan at the first window and keeps
  // probing; scan must dominate.
  HybridParams always;
  always.threshold = 0.0;
  always.window = 1;
  always.stride = 1000000;
  const AlignResult r_always = run_hybrid(f, cfg, f.similar, always);
  EXPECT_GT(r_always.stats.scan_columns, r_always.stats.iterate_columns);

  // Scores agree regardless.
  EXPECT_EQ(r_never.score, r_always.score);
}

TEST(Hybrid, MidMatrixSwitchHandsOffStateExactly) {
  // Deliberately pathological switching (every window) across MANY
  // penalty/kind combinations: any buffer-invariant mismatch between the
  // two column engines would corrupt scores.
  Fixture f;
  HybridParams hp;
  hp.threshold = 0.0;  // switch at every opportunity
  hp.window = 1;
  hp.stride = 3;
  for (const Penalties& pen : test::test_penalties()) {
    for (AlignKind kind :
         {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
          AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
      AlignConfig cfg;
      cfg.kind = kind;
      cfg.pen = pen;
      const AlignResult r = run_hybrid(f, cfg, f.similar, hp);
      EXPECT_EQ(r.score,
                core::align_sequential(f.matrix, cfg, f.query, f.similar))
          << to_string(kind);
      if (cfg.gap_model() == GapModel::Affine) {
        EXPECT_GT(r.stats.switches, 4u);
      }
    }
  }
}

}  // namespace
