// Karlin-Altschul statistics (lambda root, bit scores, E-values).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <stdexcept>

#include "score/evalue.h"
#include "score/matrices.h"

using namespace aalign;

namespace {

TEST(Evalue, Blosum62LambdaMatchesPublishedValue) {
  // Karlin-Altschul ungapped lambda for BLOSUM62 with Robinson-Robinson
  // frequencies is ~0.318 nats (the canonical BLAST value is 0.3176).
  const auto bg = score::protein_background();
  const score::KarlinParams p =
      score::compute_ungapped_params(score::ScoreMatrix::blosum62(), bg);
  EXPECT_NEAR(p.lambda, 0.3176, 0.01);
  EXPECT_GT(p.H, 0.0);
}

TEST(Evalue, LambdaRootProperty) {
  // The defining identity: sum p_i p_j exp(lambda * s_ij) == 1.
  const auto bg = score::protein_background();
  for (const score::ScoreMatrix* m :
       {&score::ScoreMatrix::blosum62(), &score::ScoreMatrix::blosum45(),
        &score::ScoreMatrix::blosum80()}) {
    const score::KarlinParams p = score::compute_ungapped_params(*m, bg);
    double total = 0.0;
    for (int i = 0; i < 20; ++i) {
      for (int j = 0; j < 20; ++j) {
        total += bg[static_cast<std::size_t>(i)] *
                 bg[static_cast<std::size_t>(j)] *
                 std::exp(p.lambda * m->at(i, j));
      }
    }
    EXPECT_NEAR(total, 1.0, 1e-6) << m->name();
  }
}

TEST(Evalue, RejectsNonNegativeExpectation) {
  // A match-heavy matrix with positive expected score has no lambda.
  const score::ScoreMatrix m = score::ScoreMatrix::dna(5, 1);
  std::array<double, 32> bg{};
  for (int i = 0; i < 4; ++i) bg[static_cast<std::size_t>(i)] = 0.25;
  EXPECT_THROW(score::compute_ungapped_params(m, bg), std::invalid_argument);
}

TEST(Evalue, BitScoreAndEvalueBehaviour) {
  const score::KarlinParams p =
      score::default_protein_params(score::ScoreMatrix::blosum62());
  // Bit score grows linearly with raw score.
  EXPECT_GT(score::bit_score(p, 100), score::bit_score(p, 50));
  // E-value decays with score, grows with search space.
  EXPECT_LT(score::e_value(p, 100, 300, 1000000),
            score::e_value(p, 50, 300, 1000000));
  EXPECT_LT(score::e_value(p, 100, 300, 1000000),
            score::e_value(p, 100, 300, 100000000));
  // A strong hit in a small database is significant.
  EXPECT_LT(score::e_value(p, 300, 300, 1000000), 1e-6);
}

}  // namespace
