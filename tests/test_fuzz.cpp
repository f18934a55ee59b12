// Randomized cross-checks ("fuzz"): random Farrar-safe configurations,
// degenerate inputs (homopolymers, wildcards, stop codons), DNA alphabet,
// shape extremes, and a differential search harness that cross-checks the
// intra-sequence engine (every ISA x start width), the inter-sequence
// engine (every backend x precision-ladder start tier), and the scalar
// oracle against each other on seeded random databases.
//
// AALIGN_FUZZ_ROUNDS scales the differential harness round count (default
// 3); sanitizer CI jobs raise it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>

#include "core/aligner.h"
#include "core/engine.h"
#include "core/inter_engine.h"
#include "core/sequential.h"
#include "score/matrices.h"
#include "search/database_search.h"
#include "search/inter_search.h"
#include "seq/generator.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

// Names a lazy-F variant in a failure message.
const char* lazyf_name(LazyF l) {
  return l == LazyF::Fixup ? "fixup" : "legacy";
}

int fuzz_rounds(int fallback) {
  if (const char* env = std::getenv("AALIGN_FUZZ_ROUNDS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return fallback;
}

TEST(Fuzz, RandomConfigurationsMatchOracle) {
  std::mt19937_64 rng(0xF055);
  const auto& m = score::ScoreMatrix::blosum62();
  std::uniform_int_distribution<int> open_d(1, 20), ext_d(2, 8);
  std::uniform_int_distribution<int> kind_d(0, 4), len_d(1, 400);
  std::uniform_int_distribution<int> strat_d(0, 2);

  const auto isas = test::available_isas();
  for (int iter = 0; iter < 60; ++iter) {
    AlignConfig cfg;
    cfg.kind = static_cast<AlignKind>(kind_d(rng));
    // Linear systems need open == 0 on both axes.
    const bool linear = (iter % 3) == 0;
    cfg.pen.query = GapScheme{linear ? 0 : open_d(rng), ext_d(rng)};
    cfg.pen.subject = GapScheme{linear ? 0 : open_d(rng), ext_d(rng)};
    if (!test::farrar_safe(m, cfg.pen)) continue;

    const auto q = test::random_protein(rng, static_cast<std::size_t>(len_d(rng)));
    const auto s = test::random_protein(rng, static_cast<std::size_t>(len_d(rng)));
    const long expect = core::align_sequential(m, cfg, q, s);

    core::QueryOptions opt;
    opt.isa = isas[static_cast<std::size_t>(iter) % isas.size()];
    opt.width = ScoreWidth::W32;
    opt.strategy = static_cast<Strategy>(strat_d(rng));
    const AlignResult r = align_pair(m, cfg, q, s, opt);
    ASSERT_EQ(r.score, expect)
        << "iter " << iter << " kind " << to_string(cfg.kind) << " strat "
        << to_string(r.strategy) << " isa " << simd::isa_name(r.isa)
        << " pen " << cfg.pen.query.open << "/" << cfg.pen.query.extend
        << " " << cfg.pen.subject.open << "/" << cfg.pen.subject.extend;
  }
}

TEST(Fuzz, DegenerateSequences) {
  const auto& alpha = score::Alphabet::protein();
  const auto& m = score::ScoreMatrix::blosum62();

  const std::vector<std::string> inputs = {
      "A",
      "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",  // homopolymer
      "XXXXXXXXXX",                                         // all wildcard
      "W*W*W*W*W*",                                         // stop codons
      "ARNDCQEGHILKMFPSTWYVBZX*",                           // full alphabet
  };

  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
          AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    for (const auto& qs : inputs) {
      for (const auto& ss : inputs) {
        const auto q = alpha.encode(qs);
        const auto s = alpha.encode(ss);
        const long expect = core::align_sequential(m, cfg, q, s);
        for (Strategy strat : {Strategy::StripedIterate,
                               Strategy::StripedScan, Strategy::Hybrid}) {
          core::QueryOptions opt;
          opt.strategy = strat;
          opt.width = ScoreWidth::W32;
          ASSERT_EQ(align_pair(m, cfg, q, s, opt).score, expect)
              << to_string(kind) << " " << to_string(strat) << " '" << qs
              << "' vs '" << ss << "'";
        }
      }
    }
  }
}

TEST(Fuzz, DnaAlignment) {
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(5, 4);
  const auto& alpha = dna.alphabet();
  std::mt19937_64 rng(404);
  std::uniform_int_distribution<int> base(0, 3);

  for (AlignKind kind : {AlignKind::Local, AlignKind::Global}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 4);  // farrar-safe for min=-4
    ASSERT_TRUE(test::farrar_safe(dna, cfg.pen));
    for (int iter = 0; iter < 8; ++iter) {
      std::vector<std::uint8_t> q(50 + iter * 31), s(80 + iter * 17);
      for (auto& c : q) c = static_cast<std::uint8_t>(base(rng));
      for (auto& c : s) c = static_cast<std::uint8_t>(base(rng));
      // Sprinkle Ns.
      q[q.size() / 2] = static_cast<std::uint8_t>(alpha.wildcard());

      const long expect = core::align_sequential(dna, cfg, q, s);
      for (Strategy strat : {Strategy::StripedIterate, Strategy::StripedScan,
                             Strategy::Hybrid}) {
        core::QueryOptions opt;
        opt.strategy = strat;
        ASSERT_EQ(align_pair(dna, cfg, q, s, opt).score, expect)
            << to_string(kind) << " " << to_string(strat);
      }
    }
  }
}

TEST(Fuzz, ExtremeShapeRatios) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(7777);
  AlignConfig cfg;
  cfg.pen = Penalties::symmetric(10, 2);

  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 2000}, {2000, 1}, {2, 1500}, {1500, 2}, {3000, 64}, {64, 3000}};
  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
          AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    cfg.kind = kind;
    for (const auto& [mm, nn] : shapes) {
      const auto q = test::random_protein(rng, mm);
      const auto s = test::random_protein(rng, nn);
      const long expect = core::align_sequential(m, cfg, q, s);
      core::QueryOptions opt;
      opt.width = ScoreWidth::W32;
      opt.strategy = Strategy::Hybrid;
      ASSERT_EQ(align_pair(m, cfg, q, s, opt).score, expect)
          << to_string(kind) << " " << mm << "x" << nn;
    }
  }
}

// Differential search harness: one seeded database per round, containing
// every stride-boundary length (segment counts flip at multiples of the
// lane width), the empty and single-residue subjects, random-length
// subjects, and a high-identity homolog that forces narrow-precision
// saturation. Every engine variant must reproduce the scalar oracle
// score-for-score.
TEST(Fuzz, DifferentialSearchHarness) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto isas = test::available_isas();
  const int rounds = fuzz_rounds(3);

  for (int round = 0; round < rounds; ++round) {
    std::mt19937_64 rng(0xD1FFu + static_cast<std::uint64_t>(round) * 7919);
    AlignConfig cfg;
    cfg.kind = AlignKind::Local;  // the inter engine is local-only
    const auto pens = test::test_penalties();
    cfg.pen = pens[static_cast<std::size_t>(round) % pens.size()];

    std::uniform_int_distribution<int> qlen_d(40, 260), slen_d(2, 300);
    const auto query =
        test::random_protein(rng, static_cast<std::size_t>(qlen_d(rng)));

    std::vector<std::vector<std::uint8_t>> seqs;
    auto add = [&](std::vector<std::uint8_t> s) {
      seqs.push_back(std::move(s));
    };
    // Stride boundaries: one below, at, and above each power-of-two lane
    // granularity up to 128.
    for (std::size_t len : {15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129}) {
      add(test::random_protein(rng, len));
    }
    add({});                            // empty subject
    add(test::random_protein(rng, 1));  // single residue
    for (int i = 0; i < 4; ++i) {
      add(test::random_protein(rng, static_cast<std::size_t>(slen_d(rng))));
    }
    add(test::mutate(rng, query, 0.1, 0.02));  // saturates int8 lanes
    const seq::Database db = test::encoded_database(m.alphabet(), seqs);

    std::vector<long> oracle(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) {
      oracle[i] = core::align_sequential(m, cfg, query, seqs[i]);
    }

    // Intra-sequence engine: every ISA x adaptive start width (skipping
    // widths the backend does not implement).
    for (simd::IsaKind isa : isas) {
      for (ScoreWidth width :
           {ScoreWidth::Auto, ScoreWidth::W16, ScoreWidth::W32}) {
        if (width == ScoreWidth::W16 &&
            core::get_engine<std::int16_t>(isa) == nullptr) {
          continue;
        }
        if (width == ScoreWidth::W32 &&
            core::get_engine<std::int32_t>(isa) == nullptr) {
          continue;
        }
        search::SearchOptions opt;
        opt.threads = 1 + round % 3;
        opt.query.isa = isa;
        opt.query.width = width;
        opt.query.strategy =
            static_cast<Strategy>((round + static_cast<int>(width)) % 3);
        seq::Database dbc = db;
        const auto res = search::DatabaseSearch(m, cfg, opt).search(query, dbc);
        ASSERT_EQ(res.scores.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(res.scores[i], oracle[i])
              << "round " << round << " intra isa=" << simd::isa_name(isa)
              << " width=" << static_cast<int>(width) << " subject " << i
              << " len " << seqs[i].size();
        }
      }
    }

    // Inter-sequence engine: every backend x precision-ladder start tier.
    for (simd::IsaKind isa : isas) {
      if (core::get_inter_engine(isa) == nullptr) continue;
      for (ScoreWidth start :
           {ScoreWidth::Auto, ScoreWidth::W16, ScoreWidth::W32}) {
        search::SearchOptions opt;
        opt.threads = 1 + round % 3;
        opt.query.isa = isa;
        opt.query.width = start;
        search::InterSequenceSearch inter(m, cfg.pen, opt);
        seq::Database dbc = db;
        const auto res = inter.search(query, dbc);
        ASSERT_EQ(res.scores.size(), oracle.size());
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(res.scores[i], oracle[i])
              << "round " << round << " inter isa=" << simd::isa_name(isa)
              << " start=" << static_cast<int>(start) << " subject " << i
              << " len " << seqs[i].size();
        }
      }
    }

    // Batched many-query scheduler vs the same oracle (two queries: the
    // round's query twice, exercising the profile-cache hit path).
    {
      search::SearchOptions opt;
      opt.threads = 2;
      seq::Database dbc = db;
      const auto many = search::DatabaseSearch(m, cfg, opt)
                            .search_many({query, query}, dbc);
      ASSERT_EQ(many.size(), 2u);
      for (const auto& r : many) {
        for (std::size_t i = 0; i < oracle.size(); ++i) {
          ASSERT_EQ(r.scores[i], oracle[i]) << "round " << round
                                            << " batched subject " << i;
        }
      }
    }
  }
}

// The oracle itself on degenerate shapes: the DP recurrence collapses to
// its boundary conditions when either input is empty.
TEST(Fuzz, EmptySequenceOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(99);
  const auto s = test::random_protein(rng, 25);

  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
        AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    // Two empties: nothing to align, score 0 under every mode.
    EXPECT_EQ(core::align_sequential(m, cfg, {}, {}), 0) << to_string(kind);
  }

  // Local: an empty side means the best local alignment is empty -> 0.
  AlignConfig local;
  local.kind = AlignKind::Local;
  local.pen = Penalties::symmetric(10, 2);
  EXPECT_EQ(core::align_sequential(m, local, {}, s), 0);
  EXPECT_EQ(core::align_sequential(m, local, s, {}), 0);

  // Global: an empty query leaves one all-gap run across the subject.
  AlignConfig global;
  global.kind = AlignKind::Global;
  global.pen = Penalties::symmetric(10, 2);
  const long all_gap = core::align_sequential(m, global, {}, s);
  EXPECT_EQ(all_gap, -(10 + 2 * static_cast<long>(s.size())));
}

// Adversarial lazy-F workload (high identity, long indels): the regime
// where the legacy convergence loop retries most and the scan fixup saves
// the most. Every backend runs both lazy-F paths against the sequential
// oracle AND against each other - the fixup must be score-identical to
// the loop it replaces, not merely oracle-correct, across affine and
// linear gap systems and across alignment kinds.
TEST(Fuzz, AdversarialLazyFDifferential) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto isas = test::available_isas();
  const int rounds = fuzz_rounds(3);

  for (int round = 0; round < rounds; ++round) {
    seq::SequenceGenerator gen(0xADF0u + static_cast<std::uint64_t>(round));
    std::uniform_int_distribution<int> len_d(120, 700);
    const auto query = gen.protein(
        static_cast<std::size_t>(len_d(gen.rng())), "q");
    seq::AdversarialSpec spec;
    spec.identity = 0.95 + 0.04 * (round % 2);
    spec.gap_rate = 0.005 + 0.01 * (round % 3);
    const auto subject = gen.adversarial_subject(query, spec);

    const auto& alpha = score::Alphabet::protein();
    const auto q = alpha.encode(query.residues);
    const auto s = alpha.encode(subject.residues);

    for (const bool linear : {false, true}) {
      for (AlignKind kind : {AlignKind::Local, AlignKind::Global,
                             AlignKind::SemiGlobal}) {
        AlignConfig cfg;
        cfg.kind = kind;
        cfg.pen = linear ? Penalties::symmetric(0, 4)
                         : Penalties::symmetric(10, 2);
        const long expect = core::align_sequential(m, cfg, q, s);

        for (simd::IsaKind isa : isas) {
          for (Strategy strat : {Strategy::StripedIterate, Strategy::Hybrid}) {
            long scores[2];
            for (LazyF lazyf : {LazyF::Fixup, LazyF::Legacy}) {
              cfg.lazyf = lazyf;
              core::QueryOptions opt;
              opt.isa = isa;
              opt.width = ScoreWidth::Auto;  // exercises 8/16-bit fixup too
              opt.strategy = strat;
              scores[lazyf == LazyF::Legacy] = align_pair(m, cfg, q, s, opt).score;
              ASSERT_EQ(scores[lazyf == LazyF::Legacy], expect)
                  << "round " << round << " " << to_string(kind) << " "
                  << to_string(strat) << " " << lazyf_name(lazyf) << " "
                  << (linear ? "linear" : "affine") << " isa "
                  << simd::isa_name(isa);
            }
            ASSERT_EQ(scores[0], scores[1])
                << "fixup/legacy divergence round " << round;
          }
        }
      }
    }
  }
}

// Two-stage search differential (docs/search.md): each round builds a
// seeded database of planted homologs, stride-boundary lengths, and
// degenerate subjects, then checks - for every backend x precision tier x
// threshold - that the filtered search is a prefix-consistent subset of
// the exhaustive one: every survivor rescored bit-identically, dropped
// subjects only ever carrying the sentinel, the filtered top-k exactly
// the exhaustive ranking with dropped subjects removed. At the calibrated
// default threshold the planted homologs must all survive (recall).
TEST(Fuzz, FilterRecallDifferential) {
  const auto& m = score::ScoreMatrix::blosum62();
  const auto isas = test::available_isas();
  const int rounds = fuzz_rounds(3);
  const std::size_t kTopK = 6;

  for (int round = 0; round < rounds; ++round) {
    std::mt19937_64 rng(0xF117u + static_cast<std::uint64_t>(round) * 104729);
    AlignConfig cfg;
    cfg.kind = AlignKind::Local;  // the filter's calibrated regime
    const auto pens = test::test_penalties();
    cfg.pen = pens[static_cast<std::size_t>(round) % pens.size()];

    std::uniform_int_distribution<int> qlen_d(120, 280), slen_d(2, 320);
    const auto query =
        test::random_protein(rng, static_cast<std::size_t>(qlen_d(rng)));

    std::vector<std::vector<std::uint8_t>> seqs;
    auto add = [&](std::vector<std::uint8_t> s) {
      seqs.push_back(std::move(s));
    };
    // Planted homologs first (original indices 0..kTopK-1): identity
    // bands from near-identical down to the calibration edge.
    const double subs[] = {0.05, 0.15, 0.25, 0.35, 0.40, 0.10};
    for (std::size_t h = 0; h < kTopK; ++h) {
      add(test::mutate(rng, query, subs[h], 0.01 * static_cast<double>(h % 4)));
    }
    add({});                            // empty subject: guard auto-pass
    add(test::random_protein(rng, 1));  // single residue: guard auto-pass
    for (std::size_t len : {16, 17, 63, 64, 65, 128}) {
      add(test::random_protein(rng, len));
    }
    for (int i = 0; i < 80; ++i) {
      add(test::random_protein(rng, static_cast<std::size_t>(slen_d(rng))));
    }
    const seq::Database db = test::encoded_database(m.alphabet(), seqs);

    for (simd::IsaKind isa : isas) {
      for (ScoreWidth width : {ScoreWidth::Auto, ScoreWidth::W32}) {
        if (width == ScoreWidth::W32 &&
            core::get_engine<std::int32_t>(isa) == nullptr) {
          continue;
        }
        search::SearchOptions opt;
        opt.threads = 1 + round % 3;
        opt.top_k = kTopK;
        opt.query.isa = isa;
        opt.query.width = width;

        seq::Database dbe = db;
        const auto exhaustive =
            search::DatabaseSearch(m, cfg, opt).search(query, dbe);

        // Default (calibrated) threshold plus one loose and one absurdly
        // tight cut: the subset invariant must hold at every threshold,
        // recall only at the default.
        for (const double thr : {-1.0, 0.01, 0.6}) {
          opt.filter.mode = filter::FilterMode::On;
          opt.filter.threshold = thr;
          seq::Database dbf = db;
          const auto filtered =
              search::DatabaseSearch(m, cfg, opt).search(query, dbf);
          ASSERT_TRUE(filtered.filtered);
          ASSERT_EQ(filtered.scores.size(), exhaustive.scores.size());

          std::vector<search::SearchHit> expected;
          for (std::size_t i = 0; i < filtered.scores.size(); ++i) {
            if (filtered.scores[i] == filter::kDroppedScore) continue;
            ASSERT_EQ(filtered.scores[i], exhaustive.scores[i])
                << "round " << round << " isa " << simd::isa_name(isa)
                << " thr " << thr << " subject " << i;
            expected.push_back(search::SearchHit{i, exhaustive.scores[i]});
          }
          std::sort(expected.begin(), expected.end(),
                    [](const search::SearchHit& a, const search::SearchHit& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.index < b.index;
                    });
          if (expected.size() > kTopK) expected.resize(kTopK);
          ASSERT_EQ(filtered.top.size(), expected.size())
              << "round " << round << " thr " << thr;
          for (std::size_t r = 0; r < expected.size(); ++r) {
            ASSERT_EQ(filtered.top[r].index, expected[r].index)
                << "round " << round << " thr " << thr << " rank " << r;
            ASSERT_EQ(filtered.top[r].score, expected[r].score);
          }

          if (thr < 0.0) {
            // Calibrated default: every planted homolog survives.
            for (std::size_t h = 0; h < kTopK; ++h) {
              ASSERT_NE(filtered.scores[h], filter::kDroppedScore)
                  << "round " << round << " isa " << simd::isa_name(isa)
                  << " dropped planted homolog " << h << " (sub rate "
                  << subs[h] << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Fuzz, LongSimilarPairAllBackends) {
  // One big pair (8k x 8k, high identity) through every backend: catches
  // accumulation and range issues short tests miss.
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(31337);
  const auto q = test::random_protein(rng, 8000);
  const auto s = test::mutate(rng, q, 0.15, 0.02);

  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const long expect = core::align_sequential(m, cfg, q, s);

  for (simd::IsaKind isa : test::available_isas()) {
    core::QueryOptions opt;
    opt.isa = isa;
    opt.width = ScoreWidth::Auto;  // will promote to 32-bit
    opt.strategy = Strategy::Hybrid;
    const AlignResult r = align_pair(m, cfg, q, s, opt);
    EXPECT_EQ(r.score, expect) << simd::isa_name(isa);
    EXPECT_FALSE(r.saturated);
  }
}

}  // namespace
