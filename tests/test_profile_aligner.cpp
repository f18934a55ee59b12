// Striped profile layout, QueryContext behaviour, and PairAligner API
// edges (errors, ISA forcing, width listing, query reuse).
#include <gtest/gtest.h>

#include <sys/mman.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "core/aligner.h"
#include "core/query_context.h"
#include "core/sequential.h"
#include "obs/metrics.h"
#include "score/profile.h"
#include "simd/modules.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

TEST(StripedProfile, LayoutMatchesDefinition) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(2);
  const auto q = test::random_protein(rng, 23);  // forces padding

  for (int width : {4, 8, 16}) {
    score::StripedProfile<std::int16_t> p;
    score::build_striped_profile<std::int16_t>(
        p, q, score::profile_tables<std::int16_t>(m, -999), width);
    EXPECT_EQ(p.width, width);
    EXPECT_EQ(p.segs, (23 + width - 1) / width);
    EXPECT_EQ(p.m, 23);

    for (int a = 0; a < m.size(); ++a) {
      const std::int16_t* row = p.row(a);
      for (int j = 0; j < p.segs; ++j) {
        for (int l = 0; l < width; ++l) {
          const int logical = l * p.segs + j;
          const std::int16_t expect =
              logical < p.m ? m.at(a, q[logical]) : -999;
          ASSERT_EQ(row[j * width + l], expect)
              << "a=" << a << " logical=" << logical << " width=" << width;
        }
      }
    }
  }
}

TEST(StripedProfile, StripedOffsetInverse) {
  // striped_offset must be a bijection [0, segs*W) -> buffer offsets.
  for (int segs : {1, 3, 7}) {
    for (int width : {4, 8, 16}) {
      std::vector<int> seen(segs * width, 0);
      for (int e = 0; e < segs * width; ++e) {
        const int off = simd::striped_offset(e, segs, width);
        ASSERT_GE(off, 0);
        ASSERT_LT(off, segs * width);
        seen[off]++;
      }
      for (int c : seen) EXPECT_EQ(c, 1);
    }
  }
}

TEST(StripedProfile, RejectsEmptyQuery) {
  score::StripedProfile<std::int32_t> p;
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(score::build_striped_profile<std::int32_t>(
                   p, empty, score::ScoreMatrix::blosum62(), 8, 0),
               std::invalid_argument);
}

// Same shape and the same logical score for every (letter, striped cell),
// whichever layout `got` holds (the oracle `want` is always rows).
template <class T>
void expect_same_profile(const score::StripedProfile<T>& got,
                         const score::StripedProfile<T>& want,
                         const std::string& what) {
  ASSERT_EQ(got.m, want.m) << what;
  ASSERT_EQ(got.width, want.width) << what;
  ASSERT_EQ(got.segs, want.segs) << what;
  ASSERT_EQ(got.alpha, want.alpha) << what;
  if (got.lookup()) {
    ASSERT_EQ(got.index.size(), static_cast<std::size_t>(got.padded_len()))
        << what;
    ASSERT_TRUE(got.data.empty()) << what;
  } else {
    ASSERT_EQ(got.data.size(), want.data.size()) << what;
  }
  for (int a = 0; a < want.alpha; ++a) {
    for (int k = 0; k < want.padded_len(); ++k) {
      ASSERT_EQ(got.score(a, k), want.score(a, k))
          << what << " letter " << a << " cell " << k;
    }
  }
}

// The same layout and the same bytes: index and code, or rows.
template <class T>
void expect_same_bytes(const score::StripedProfile<T>& got,
                       const score::StripedProfile<T>& want,
                       const std::string& what) {
  ASSERT_EQ(got.lookup(), want.lookup()) << what;
  ASSERT_EQ(got.code, want.code) << what;
  ASSERT_TRUE(std::equal(got.index.begin(), got.index.end(),
                         want.index.begin(), want.index.end()))
      << what;
  ASSERT_TRUE(std::equal(got.data.begin(), got.data.end(), want.data.begin(),
                         want.data.end()))
      << what;
  if (got.lookup()) {
    for (int a = 0; a < want.alpha; ++a) {
      ASSERT_TRUE(std::equal(got.tables->row(a),
                             got.tables->row(a) + want.alpha + 1,
                             want.tables->row(a)))
          << what << " letter " << a;
    }
  }
}

// Every engine's build (the lookup layout where the backend's register
// lookup is one instruction, rows filled by the lookup or the scalar fill
// elsewhere) against the per-cell oracle, from both letter-table sources.
// The LUT rows hold random full-range values so a build that read the
// matrix instead would show; alpha 40 forces every backend onto the
// scalar rows fill. The LUT copy of the matrix itself builds the same
// bytes as the matrix's own tables.
template <class T>
void engine_build_matches_reference(simd::IsaKind isa) {
  const core::Engine<T>* eng = core::get_engine<T>(isa);
  if (eng == nullptr) return;
  const int W = eng->lanes();
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(5, 4);
  const score::ScoreMatrix* matrices[] = {&score::ScoreMatrix::blosum62(),
                                          &score::ScoreMatrix::pam250(),
                                          &dna};
  std::mt19937_64 rng(14);
  std::uniform_int_distribution<long> val(std::numeric_limits<T>::min(),
                                          std::numeric_limits<T>::max());
  for (const score::ScoreMatrix* m : matrices) {
    for (const int alpha : {m->size(), 40}) {
      const std::size_t stride = static_cast<std::size_t>(alpha) + 3;
      std::vector<T> lut(alpha * stride);
      for (T& v : lut) v = static_cast<T>(val(rng));
      std::vector<T> matrix_lut(alpha * stride);
      if (alpha == m->size()) {
        for (int c = 0; c < alpha; ++c) {
          for (int a = 0; a < alpha; ++a) {
            matrix_lut[c * stride + a] = m->at(a, c);
          }
        }
      }
      for (const T pad : {simd::neg_inf<T>(), T{0}}) {
        for (const int len : {1, W - 1, W, W + 1, 2 * W + 1, 8000}) {
          if (len < 1) continue;
          std::vector<std::uint8_t> q(len);
          std::uniform_int_distribution<int> sym(0, alpha - 1);
          for (auto& c : q) c = static_cast<std::uint8_t>(sym(rng));
          const std::string what = std::string(simd::isa_name(isa)) + " T" +
                                   std::to_string(sizeof(T) * 8) + " " +
                                   m->name() + " alpha=" +
                                   std::to_string(alpha) + " pad=" +
                                   std::to_string(pad) + " m=" +
                                   std::to_string(len);
          // The AVX-512 backends' lookups are one instruction each.
          const bool want_lookup =
              alpha < score::kLookupEntries &&
              (isa == simd::IsaKind::Avx512 || isa == simd::IsaKind::Avx512Bw);
          score::StripedProfile<T> got;
          if (alpha == m->size()) {
            eng->build_profile(got, q, m->letter_tables(pad));
            EXPECT_EQ(got.lookup(), want_lookup) << what;
            expect_same_profile(
                got,
                test::reference_striped_profile<T>(
                    q, alpha, W, pad,
                    [&](int a, int c) { return m->at(a, c); }),
                what + " matrix");
            const score::ProfileTables<T> copied = score::profile_tables<T>(
                std::span<const T>(matrix_lut), stride, alpha, pad);
            score::StripedProfile<T> via_lut;
            eng->build_profile(via_lut, q, copied);
            expect_same_bytes(via_lut, got, what + " matrix via lut");
          }
          const score::ProfileTables<T> lut_tables =
              score::profile_tables<T>(std::span<const T>(lut), stride,
                                       alpha, pad);
          eng->build_profile(got, q, lut_tables);
          EXPECT_EQ(got.lookup(), want_lookup) << what;
          expect_same_profile(
              got,
              test::reference_striped_profile<T>(
                  q, alpha, W, pad,
                  [&](int a, int c) { return lut[c * stride + a]; }),
              what + " lut");
        }
      }
    }
  }
  // Every query length up to two 16x16 striping tiles along each lane
  // plus one, at one alphabet: every partial tile and query end.
  const score::ScoreMatrix& m = dna;
  for (int len = 1; len <= 2 * 16 * W + 1; ++len) {
    std::vector<std::uint8_t> q(len);
    std::uniform_int_distribution<int> sym(0, m.size() - 1);
    for (auto& c : q) c = static_cast<std::uint8_t>(sym(rng));
    score::StripedProfile<T> got;
    eng->build_profile(got, q, m.letter_tables(T{0}));
    expect_same_profile(got,
                        test::reference_striped_profile<T>(
                            q, m.size(), W, T{0},
                            [&](int a, int c) { return m.at(a, c); }),
                        std::string(simd::isa_name(isa)) + " T" +
                            std::to_string(sizeof(T) * 8) + " sweep m=" +
                            std::to_string(len));
  }
}

TEST(Profile, EngineBuildMatchesReference) {
  for (simd::IsaKind isa : test::available_isas()) {
    engine_build_matches_reference<std::int8_t>(isa);
    engine_build_matches_reference<std::int16_t>(isa);
    engine_build_matches_reference<std::int32_t>(isa);
  }
}

// A subject byte at or past the alphabet size must throw before any
// kernel indexes a letter table or row with it: on every backend, width,
// strategy and kind, with the aligner still usable afterwards.
TEST(PairAligner, RejectsSubjectSymbolOutsideAlphabet) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(25);
  const auto q = test::random_protein(rng, 40);
  const auto good = test::random_protein(rng, 40);
  for (simd::IsaKind isa : test::available_isas()) {
    for (ScoreWidth width : {ScoreWidth::Auto, ScoreWidth::W8,
                             ScoreWidth::W16, ScoreWidth::W32}) {
      for (Strategy strategy : {Strategy::StripedIterate,
                                Strategy::StripedScan, Strategy::Hybrid}) {
        for (AlignKind kind : {AlignKind::Local, AlignKind::Global}) {
          core::QueryOptions opt;
          opt.isa = isa;
          opt.width = width;
          opt.strategy = strategy;
          AlignConfig cfg;
          cfg.kind = kind;
          std::optional<PairAligner> a;
          try {
            a.emplace(m, cfg, opt);
            a->set_query(q);
          } catch (const std::invalid_argument&) {
            continue;  // the backend has no lanes of this width
          }
          for (const int bad : {m.size(), 200, 255}) {
            auto s = good;
            s[17] = static_cast<std::uint8_t>(bad);
            EXPECT_THROW(a->align(s), std::invalid_argument)
                << simd::isa_name(isa) << " byte " << bad;
          }
          EXPECT_EQ(a->align(good).score,
                    core::align_sequential(m, cfg, q, good))
              << simd::isa_name(isa);
        }
      }
    }
  }
}

// The 40-letter matrix end to end (rows on every backend, including the
// ones that otherwise score by lookup) against the sequential oracle:
// every available ISA x width x kind x strategy. A fixed narrow width may
// saturate, and then only the flag is checked; Auto must always be exact.
TEST(PairAligner, FortyLetterAlphabetMatchesSequential) {
  const score::ScoreMatrix& m = test::matrix40();
  std::mt19937_64 rng(40);
  struct Pair {
    std::vector<std::uint8_t> q, s;
  };
  std::vector<Pair> pairs;
  for (const std::size_t len : {1, 31, 64, 65, 150}) {
    const auto q = test::random_symbols(rng, len, 40);
    pairs.push_back({q, test::mutate(rng, q, 0.15, 0.03)});
    pairs.push_back({q, test::random_symbols(rng, 70, 40)});
  }
  for (simd::IsaKind isa : test::available_isas()) {
    for (ScoreWidth width : {ScoreWidth::Auto, ScoreWidth::W8,
                             ScoreWidth::W16, ScoreWidth::W32}) {
      for (Strategy strategy : {Strategy::StripedIterate,
                                Strategy::StripedScan, Strategy::Hybrid}) {
        for (AlignKind kind :
             {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
              AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
          core::QueryOptions opt;
          opt.isa = isa;
          opt.width = width;
          opt.strategy = strategy;
          opt.hybrid.window = 2;
          opt.hybrid.stride = 4;
          opt.hybrid.threshold = 0.05;
          AlignConfig cfg;
          cfg.kind = kind;
          cfg.pen = Penalties::symmetric(6, 2);
          std::optional<PairAligner> a;
          try {
            a.emplace(m, cfg, opt);
            a->set_query(pairs.front().q);
          } catch (const std::invalid_argument&) {
            continue;  // the backend has no lanes of this width
          }
          for (const Pair& p : pairs) {
            a->set_query(p.q);
            const AlignResult got = a->align(p.s);
            const std::string what =
                std::string(simd::isa_name(isa)) + " width " +
                std::to_string(static_cast<int>(width)) + " m=" +
                std::to_string(p.q.size()) + " n=" +
                std::to_string(p.s.size());
            if (width == ScoreWidth::Auto) {
              ASSERT_FALSE(got.saturated) << what;
            }
            if (got.saturated) continue;
            ASSERT_EQ(got.score, core::align_sequential(m, cfg, p.q, p.s))
                << what;
          }
        }
      }
    }
  }
}

TEST(PairAligner, RequiresQueryBeforeAlign) {
  PairAligner a(score::ScoreMatrix::blosum62(), {});
  std::mt19937_64 rng(1);
  const auto s = test::random_protein(rng, 10);
  EXPECT_THROW(a.align(s), std::logic_error);
}

TEST(PairAligner, RejectsEmptyQueryAcceptsEmptySubject) {
  // An empty query has no striped profile, so it is still rejected; an
  // empty subject is a legal degenerate alignment (score 0 for local).
  PairAligner a(score::ScoreMatrix::blosum62(), {});
  std::mt19937_64 rng(1);
  const auto q = test::random_protein(rng, 10);
  const std::vector<std::uint8_t> empty;
  EXPECT_THROW(a.set_query(empty), std::invalid_argument);
  a.set_query(q);
  EXPECT_EQ(a.align(empty).score, 0);
}

TEST(PairAligner, QueryReuseAcrossManySubjects) {
  const auto& m = score::ScoreMatrix::blosum62();
  AlignConfig cfg;
  PairAligner a(m, cfg);
  std::mt19937_64 rng(3);
  const auto q = test::random_protein(rng, 120);
  a.set_query(q);
  for (int i = 0; i < 10; ++i) {
    const auto s = test::random_protein(rng, 40 + i * 53);
    EXPECT_EQ(a.align(s).score, core::align_sequential(m, cfg, q, s));
  }
  // Re-setting the query invalidates and rebuilds profiles.
  const auto q2 = test::random_protein(rng, 77);
  a.set_query(q2);
  const auto s = test::random_protein(rng, 90);
  EXPECT_EQ(a.align(s).score, core::align_sequential(m, cfg, q2, s));
}

TEST(PairAligner, ReportsRequestedIsaAndWidth) {
  std::mt19937_64 rng(4);
  const auto q = test::random_protein(rng, 50);
  const auto s = test::random_protein(rng, 50);
  for (simd::IsaKind isa : test::available_isas()) {
    if (core::get_engine<std::int16_t>(isa) == nullptr) continue;
    core::QueryOptions opt;
    opt.isa = isa;
    opt.width = ScoreWidth::W16;
    PairAligner a(score::ScoreMatrix::blosum62(), {}, opt);
    a.set_query(q);
    const AlignResult r = a.align(s);
    EXPECT_EQ(r.isa, isa);
    EXPECT_EQ(r.width, ScoreWidth::W16);
  }
}

TEST(QueryContext, WidthListRespectsIsaAndRequest) {
  std::mt19937_64 rng(5);
  const auto q = test::random_protein(rng, 30);
  const auto& m = score::ScoreMatrix::blosum62();

  core::QueryOptions opt;
  opt.isa = simd::IsaKind::Scalar;
  opt.width = ScoreWidth::Auto;
  core::QueryContext ctx(m, {}, opt, q);
  EXPECT_EQ(ctx.widths().size(), 3u);  // scalar provides all three

  opt.width = ScoreWidth::W32;
  core::QueryContext ctx32(m, {}, opt, q);
  ASSERT_EQ(ctx32.widths().size(), 1u);
  EXPECT_EQ(ctx32.widths()[0], ScoreWidth::W32);

  if (simd::isa_available(simd::IsaKind::Avx512)) {
    opt.isa = simd::IsaKind::Avx512;
    opt.width = ScoreWidth::Auto;
    core::QueryContext mic(m, {}, opt, q);
    ASSERT_EQ(mic.widths().size(), 1u);  // IMCI profile: int32 only
    EXPECT_EQ(mic.widths()[0], ScoreWidth::W32);

    opt.width = ScoreWidth::W8;
    EXPECT_THROW(core::QueryContext(m, {}, opt, q), std::invalid_argument);
  }
}

// A query of 2^31 residues would wrap the profile's int geometry (m,
// segs, the padded length) and send the transpose out of bounds. It must
// throw, naming the length, before any byte of it is copied or read: the
// span covers an unbacked PROT_NONE mapping, so a read would fault.
TEST(QueryContext, RejectsQueryTooLongForTheProfile) {
  const std::size_t len = std::size_t{1} << 31;
  void* map = ::mmap(nullptr, len, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(map, MAP_FAILED);
  const std::span<const std::uint8_t> q(static_cast<const std::uint8_t*>(map),
                                        len);
  const auto& m = score::ScoreMatrix::blosum62();
  const auto names_length = [&](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find(std::to_string(len)) !=
             std::string::npos;
    }
    return false;
  };
  for (simd::IsaKind isa : test::available_isas()) {
    core::QueryOptions opt;
    opt.isa = isa;
    EXPECT_TRUE(names_length([&] { core::QueryContext(m, {}, opt, q); }))
        << simd::isa_name(isa);
    PairAligner a(m, {}, opt);
    EXPECT_TRUE(names_length([&] { a.set_query(q); })) << simd::isa_name(isa);
  }
  score::StripedProfile<std::int16_t> p;
  util::AlignedBuffer<std::int16_t> idx;
  EXPECT_TRUE(names_length(
      [&] { score::stripe_query(p, q, m.size(), 32, idx); }));
  ::munmap(map, len);
}

// The letter tables belong to the matrix: every lookup profile of one
// matrix, lane type and pad reads the same address, copies of the matrix
// share them, and no two (lane type, pad) pairs do.
TEST(Profile, ProfilesOfOneMatrixShareItsTables) {
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(2, 3);
  const score::ScoreMatrix copy = dna;  // NOLINT: the copy is the point
  EXPECT_EQ(&copy.letter_tables(std::int16_t{0}),
            &dna.letter_tables(std::int16_t{0}));
  EXPECT_NE(&dna.letter_tables(std::int16_t{0}),
            &dna.letter_tables(simd::neg_inf<std::int16_t>()));
  EXPECT_THROW(dna.letter_tables(std::int16_t{-999}), std::invalid_argument);
  std::mt19937_64 rng(16);
  const std::vector<std::uint8_t> q1 = test::random_symbols(rng, 300, 5);
  const std::vector<std::uint8_t> q2 = test::random_symbols(rng, 1000, 5);
  for (simd::IsaKind isa : test::available_isas()) {
    const core::Engine<std::int8_t>* eng = core::get_engine<std::int8_t>(isa);
    if (eng == nullptr) continue;
    for (const std::int8_t pad : {simd::neg_inf<std::int8_t>(),
                                  std::int8_t{0}}) {
      score::StripedProfile<std::int8_t> a, b;
      eng->build_profile(a, q1, dna.letter_tables(pad));
      eng->build_profile(b, q2, copy.letter_tables(pad));
      if (!a.lookup()) continue;  // rows: no tables kept
      EXPECT_EQ(a.tables, &dna.letter_tables(pad)) << simd::isa_name(isa);
      EXPECT_EQ(a.tables, b.tables) << simd::isa_name(isa);
    }
  }
}

TEST(QueryContext, RejectsOutOfAlphabetQuery) {
  // A byte >= matrix.size() has no matrix row: it would read past the
  // matrix (or a LUT row), or wrap inside an in-register lookup.
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(15);
  for (simd::IsaKind isa : test::available_isas()) {
    for (const int bad : {m.size(), 255}) {
      auto q = test::random_protein(rng, 40);
      q[17] = static_cast<std::uint8_t>(bad);
      core::QueryOptions opt;
      opt.isa = isa;
      EXPECT_THROW(core::QueryContext(m, {}, opt, q), std::invalid_argument)
          << simd::isa_name(isa) << " byte " << bad;
      PairAligner a(m, {}, opt);
      EXPECT_THROW(a.set_query(q), std::invalid_argument)
          << simd::isa_name(isa) << " byte " << bad;
    }
  }
}

// `n` copies of residue `c`, encoded with `alphabet`.
std::vector<std::uint8_t> poly(
    char c, std::size_t n,
    const score::Alphabet& alphabet = score::Alphabet::protein()) {
  return std::vector<std::uint8_t>(n, alphabet.ctoi(c));
}

std::vector<std::uint8_t> concat(std::vector<std::uint8_t> a,
                                 const std::vector<std::uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// The widths an ISA has engines for, narrowest first.
std::vector<ScoreWidth> engine_widths(simd::IsaKind isa) {
  std::vector<ScoreWidth> out;
  if (core::get_engine<std::int8_t>(isa)) out.push_back(ScoreWidth::W8);
  if (core::get_engine<std::int16_t>(isa)) out.push_back(ScoreWidth::W16);
  if (core::get_engine<std::int32_t>(isa)) out.push_back(ScoreWidth::W32);
  return out;
}

bool has_width(simd::IsaKind isa, ScoreWidth w) {
  const std::vector<ScoreWidth> widths = engine_widths(isa);
  return std::find(widths.begin(), widths.end(), w) != widths.end();
}

constexpr AlignKind kNonLocalKinds[] = {
    AlignKind::Global, AlignKind::SemiGlobal, AlignKind::SemiGlobalQuery,
    AlignKind::Overlap};
constexpr Strategy kStrategies[] = {
    Strategy::StripedIterate, Strategy::StripedScan, Strategy::Hybrid};

// The shortest query length whose min_safe_width(., 0) exceeds `w`.
std::size_t first_length_above(const AlignConfig& cfg, ScoreWidth w) {
  std::size_t len = 1;
  while (min_safe_width(cfg, len, 0) <= w) ++len;
  return len;
}

TEST(QueryContext, NonLocalWidthsStartAtQueryFloor) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(16);
  for (const AlignKind kind :
       {AlignKind::Global, AlignKind::SemiGlobal, AlignKind::Overlap}) {
    AlignConfig cfg;
    cfg.kind = kind;
    const std::size_t f16 = first_length_above(cfg, ScoreWidth::W8);
    const std::size_t f32 = first_length_above(cfg, ScoreWidth::W16);
    for (const std::size_t len : {f16 - 1, f16, f32 - 1, f32}) {
      const auto q = test::random_protein(rng, len);
      // Past the int16 floor (~16k residues) every non-empty subject starts
      // at int32 whatever its length, so short ones cover the ladder there.
      const std::vector<std::size_t> lengths =
          len < 64 ? std::vector<std::size_t>{0, 1, len / 2, len, 2 * len}
                   : std::vector<std::size_t>{0, 1, 32, 64};
      std::vector<std::vector<std::uint8_t>> subjects;
      for (const std::size_t n : lengths) {
        subjects.push_back(test::mutate(rng, q, 0.3, 0.05));
        subjects.back().resize(n, 3);
      }
      std::vector<long> expect;
      for (const auto& s : subjects) {
        expect.push_back(core::align_sequential(m, cfg, q, s));
      }
      const ScoreWidth floor = min_safe_width(cfg, len, 0);
      for (simd::IsaKind isa : test::available_isas()) {
        const std::vector<ScoreWidth> full = engine_widths(isa);
        std::vector<ScoreWidth> suffix;
        for (ScoreWidth w : full) {
          if (w >= floor) suffix.push_back(w);
        }
        if (suffix.empty()) suffix.push_back(full.back());

        core::QueryOptions qopt;
        qopt.isa = isa;
        const core::QueryContext ctx(m, cfg, qopt, q);
        const std::string what = std::string(simd::isa_name(isa)) +
                                 " kind=" + std::to_string(int(kind)) +
                                 " m=" + std::to_string(len);
        EXPECT_EQ(ctx.widths(), suffix) << what;

        // Explicit widths keep their one-entry lists; their contexts also
        // replay the full-list promotion ladder below.
        std::vector<core::QueryContext> single;
        for (ScoreWidth w : full) {
          core::QueryOptions one = qopt;
          one.width = w;
          single.emplace_back(m, cfg, one, q);
          EXPECT_EQ(single.back().widths(), std::vector<ScoreWidth>{w})
              << what;
        }

        core::WorkspaceSet ws;
        for (std::size_t i = 0; i < subjects.size(); ++i) {
          const auto& s = subjects[i];
          const std::string at = what + " n=" + std::to_string(s.size());
          const core::AdaptiveResult r = ctx.align(s, ws);
          EXPECT_EQ(r.kernel.score, expect[i]) << at;
          if (s.empty()) {
            // No kernel runs; the widest width is reported, as before.
            EXPECT_EQ(r.width, full.back()) << at;
            continue;
          }
          // The full list starts at choose_start_width and promotes on
          // saturation: the trimmed context must take the same steps.
          const ScoreWidth start =
              core::choose_start_width(cfg, len, s.size(), full);
          ScoreWidth width = start;
          int promotions = -1;
          for (std::size_t wi = 0; wi < full.size(); ++wi) {
            if (full[wi] < start) continue;
            ++promotions;
            width = full[wi];
            if (!single[wi].align(s, ws).kernel.saturated) break;
          }
          EXPECT_GE(r.width, start) << at;
          EXPECT_EQ(r.width, width) << at;
          EXPECT_EQ(r.promotions, promotions) << at;
        }

        AlignConfig local = cfg;
        local.kind = AlignKind::Local;
        EXPECT_EQ(core::QueryContext(m, local, qopt, q).widths(), full)
            << what;
      }
    }
  }
}

// Runs one pair forced to `width` and under Auto: the forced run must
// report saturation, and Auto must promote past `width` to `expect`.
void expect_forced_flags(const score::ScoreMatrix& m, const AlignConfig& cfg,
                         Strategy strategy, simd::IsaKind isa,
                         ScoreWidth width, std::span<const std::uint8_t> q,
                         std::span<const std::uint8_t> s, long expect) {
  const std::string what = std::string(simd::isa_name(isa)) + " " +
                           to_string(cfg.kind) + " " + to_string(strategy) +
                           " " + to_string(width) +
                           " m=" + std::to_string(q.size());
  core::QueryOptions opt;
  opt.isa = isa;
  opt.strategy = strategy;
  opt.width = width;
  const AlignResult forced = align_pair(m, cfg, q, s, opt);
  EXPECT_TRUE(forced.saturated) << what << " scored " << forced.score;
  opt.width = ScoreWidth::Auto;
  const AlignResult adaptive = align_pair(m, cfg, q, s, opt);
  EXPECT_EQ(adaptive.score, expect) << what;
  EXPECT_FALSE(adaptive.saturated) << what;
  EXPECT_GT(adaptive.width, width) << what;
}

// A non-local score can climb past a narrow type's positive rail and come
// back below it. Query W x 3000 + A x 5000 against subject W x 8000 peaks
// at 33,000 and ends at 18,000 under BLOSUM62 10/2 (W/W = 11, A/W = -3):
// a forced int16 run once returned 17868 unflagged. The running max must
// flag the forced run, and Auto must promote to the exact score.
TEST(QueryContext, ForcedNarrowWidthFlagsPositiveRail) {
  const auto& blosum = score::ScoreMatrix::blosum62();
  AlignConfig global;
  global.kind = AlignKind::Global;
  const auto q = concat(poly('W', 3000), poly('A', 5000));
  const auto s = poly('W', 8000);
  ASSERT_EQ(core::align_sequential(blosum, global, q, s), 18000);
  for (simd::IsaKind isa : test::available_isas()) {
    if (!has_width(isa, ScoreWidth::W16)) continue;
    expect_forced_flags(blosum, global, Strategy::Hybrid, isa,
                        ScoreWidth::W16, q, s, 18000);
  }

  // The same shape, 40x fewer cells, for every kind and strategy: a DNA
  // matrix scoring 30 a match passes the int16 rail after 1,100 residues
  // (and the int8 rail after 5), then mismatches at -4 bring it back.
  const score::ScoreMatrix dna = score::ScoreMatrix::dna(30, 4);
  const score::Alphabet& nt = score::Alphabet::dna();
  struct Case {
    ScoreWidth width;
    std::vector<std::uint8_t> query, subject;
  };
  const Case cases[] = {
      {ScoreWidth::W16, concat(poly('A', 1100, nt), poly('C', 100, nt)),
       poly('A', 1200, nt)},
      {ScoreWidth::W8, concat(poly('A', 5, nt), poly('C', 20, nt)),
       poly('A', 25, nt)},
  };
  for (const AlignKind kind : kNonLocalKinds) {
    AlignConfig cfg;
    cfg.kind = kind;
    for (const Case& c : cases) {
      const long expect =
          core::align_sequential(dna, cfg, c.query, c.subject);
      for (simd::IsaKind isa : test::available_isas()) {
        if (!has_width(isa, c.width)) continue;
        for (const Strategy strategy : kStrategies) {
          expect_forced_flags(dna, cfg, strategy, isa, c.width, c.query,
                              c.subject, expect);
        }
      }
    }
  }
}

// The worst case for the negative rail: poly-residue pairs scoring -4 a
// pair (W/D), so every cell sits near the all-gap bound, at the last m + n
// each narrow width admits and one above it. Admitted, the width runs
// exact and unflagged under every strategy; one above, Auto starts wider
// and a forced run reports saturation.
TEST(QueryContext, NegativeRailAtWidthFloor) {
  const auto& m = score::ScoreMatrix::blosum62();
  struct Floor {
    ScoreWidth width;
    std::size_t last_sum;  // the largest m + n admitted at `width`
    std::size_t short_side;
  };
  for (const Floor f : {Floor{ScoreWidth::W8, 31, 5},
                        Floor{ScoreWidth::W16, 16351, 351}}) {
    for (const AlignKind kind : kNonLocalKinds) {
      AlignConfig cfg;
      cfg.kind = kind;
      for (const std::size_t sum : {f.last_sum, f.last_sum + 1}) {
        const bool admitted = sum == f.last_sum;
        ASSERT_EQ(min_safe_width(cfg, f.short_side, sum - f.short_side) ==
                      f.width,
                  admitted);
        for (const bool short_query : {true, false}) {
          const std::size_t qlen =
              short_query ? f.short_side : sum - f.short_side;
          const auto q = poly('W', qlen);
          const auto s = poly('D', sum - qlen);
          const long expect = core::align_sequential(m, cfg, q, s);
          for (simd::IsaKind isa : test::available_isas()) {
            const std::string what =
                std::string(simd::isa_name(isa)) + " " + to_string(kind) +
                " m=" + std::to_string(q.size()) +
                " n=" + std::to_string(s.size());
            core::QueryOptions opt;
            opt.isa = isa;
            const AlignResult r = align_pair(m, cfg, q, s, opt);
            EXPECT_EQ(r.score, expect) << what;
            EXPECT_EQ(r.promotions, 0) << what;
            EXPECT_EQ(r.width,
                      core::choose_start_width(cfg, q.size(), s.size(),
                                               engine_widths(isa)))
                << what;
            if (!has_width(isa, f.width)) continue;
            if (admitted) {
              EXPECT_EQ(r.width, f.width) << what;
            }
            opt.width = f.width;
            for (const Strategy strategy : kStrategies) {
              opt.strategy = strategy;
              const AlignResult forced = align_pair(m, cfg, q, s, opt);
              EXPECT_EQ(forced.saturated, !admitted)
                  << what << " " << to_string(strategy);
              if (admitted) {
                EXPECT_EQ(forced.score, expect)
                    << what << " " << to_string(strategy);
              }
            }
          }
        }
      }
    }
  }
}

TEST(QueryContext, WiderTiersBuildOnFirstPromotion) {
  // A local context builds its first width's profile up front; each wider
  // one is built by the first align() that promotes to it, and only once.
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(19);
  const auto q = test::int32_scoring_query(rng);
  const auto close = test::mutate(rng, q, 0.02, 0.0);
  const auto unrelated = test::random_protein(rng, 300);
  const AlignConfig cfg;  // local
  const long expect_close = core::align_sequential(m, cfg, q, close);
  const long expect_unrelated = core::align_sequential(m, cfg, q, unrelated);
  ASSERT_GT(expect_close, std::numeric_limits<std::int16_t>::max());
  const auto lazy_builds = [] {
    return obs::registry().counter("profile.lazy_builds").value();
  };

  for (simd::IsaKind isa : test::available_isas()) {
    core::QueryOptions opt;
    opt.isa = isa;
    const core::QueryContext ctx(m, cfg, opt, q);
    const int wider = static_cast<int>(ctx.widths().size()) - 1;
    const std::string what = simd::isa_name(isa);
    core::WorkspaceSet ws;
    const std::uint64_t before = lazy_builds();

    // An empty subject runs no kernel and builds no tier.
    EXPECT_EQ(ctx.align({}, ws).kernel.score, 0) << what;
    const core::AdaptiveResult u = ctx.align(unrelated, ws);
    EXPECT_EQ(u.kernel.score, expect_unrelated) << what;
    EXPECT_EQ(u.promotions, 0) << what;
    EXPECT_EQ(lazy_builds(), before) << what;

    for (int pass = 0; pass < 2; ++pass) {
      const core::AdaptiveResult r = ctx.align(close, ws);
      EXPECT_EQ(r.kernel.score, expect_close) << what << " pass " << pass;
      EXPECT_EQ(r.promotions, wider) << what << " pass " << pass;
      EXPECT_EQ(r.width, ScoreWidth::W32) << what << " pass " << pass;
      EXPECT_EQ(lazy_builds(), before + static_cast<std::uint64_t>(wider))
          << what << " pass " << pass;
    }
  }
}

TEST(QueryContext, SharedAcrossWorkspaces) {
  // One context, two workspaces used alternately: results must not depend
  // on which workspace ran which subject (the thread-sharing contract).
  std::mt19937_64 rng(6);
  const auto q = test::random_protein(rng, 200);
  const auto& m = score::ScoreMatrix::blosum62();
  const core::QueryContext ctx(m, {}, {}, q);

  core::WorkspaceSet ws1, ws2;
  for (int i = 0; i < 6; ++i) {
    const auto s = test::mutate(rng, q, 0.4, 0.1);
    const long a = ctx.align(s, ws1).kernel.score;
    const long b = ctx.align(s, ws2).kernel.score;
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, core::align_sequential(m, {}, q, s));
  }
}

}  // namespace
