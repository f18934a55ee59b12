// The deconstructed lazy-F fixup against its legacy oracle, on a
// constructed worst case: one enormous match at the top of the query and
// mismatches below it, so the up-gap (F) chain from the top cell floods
// the entire column. The legacy loop must cross every lane boundary - one
// full column pass per lane of carry - while the fixup resolves the same
// carry with one shifted max-scan plus a single bounded sweep.
//
// Assertions per backend (runtime cpuid-gated like test_simd_modules):
//   - the legacy loop really retries: >= 2 * segs corrective steps/column
//   - the fixup stays within one pass: <= segs steps/column
//   - H, E, and the workspace buffers end BIT-IDENTICAL between the paths
//   - kernel.lazyf.fixup_cols accounting: fixup_cols == columns
// The narrow widths (int8/int16, where the carry scan's rounds are pairs of
// saturating adds) run a scaled worst case, plus a shape whose widest
// round weight lies below -2^bits, so the clamped weight runs in a real
// column.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/aligner.h"
#include "core/kernels.h"
#include "core/sequential.h"
#include "core/workspace.h"
#include "score/profile.h"
#include "simd/vec_avx2.h"
#include "simd/vec_avx512.h"
#include "simd/vec_avx512bw.h"
#include "simd/vec_scalar.h"
#include "simd/vec_sse41.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

// Names a lazy-F variant in a failure message.
const char* lazyf_name(LazyF l) {
  return l == LazyF::Fixup ? "fixup" : "legacy";
}

// Query: one 'A' then mismatching 'C's; subject: all 'A'. With a match
// score far above the query length, every column's F chain from H(i,1)
// dominates the rest of the column.
struct WorstCase {
  score::ScoreMatrix m;
  std::vector<std::uint8_t> q;
  std::vector<std::uint8_t> s;
  AlignConfig cfg;

  explicit WorstCase(std::size_t qlen = 64, std::size_t cols = 4,
                     int match = 127, AlignKind kind = AlignKind::Global,
                     int extend = 1)
      : m(score::ScoreMatrix::dna(match, 4)) {
    const auto& alpha = m.alphabet();
    q.assign(qlen, static_cast<std::uint8_t>(alpha.ctoi('C')));
    q[0] = static_cast<std::uint8_t>(alpha.ctoi('A'));
    s.assign(cols, static_cast<std::uint8_t>(alpha.ctoi('A')));
    cfg.kind = kind;
    // extend 1: slow F decay -> deep carries
    cfg.pen = Penalties::symmetric(2, extend);
  }
};

template <class Ops>
struct EngineRun {
  core::Workspace<typename Ops::value_type> ws;
  std::uint64_t lazy_steps = 0;
  std::uint64_t fixup_cols = 0;
  long score = 0;
  int segs = 0;
  bool saturated = false;
};

template <class Ops, AlignKind K = AlignKind::Global>
EngineRun<Ops> run_engine(const WorstCase& wc, LazyF lazyf) {
  using T = typename Ops::value_type;
  score::StripedProfile<T> prof;
  score::build_striped_profile<T>(
      prof, wc.q, score::profile_tables<T>(wc.m, T{0}), Ops::kWidth);
  EngineRun<Ops> out;
  core::ColumnEngine<Ops, K, true> eng(
      prof, core::make_steps<T>(wc.cfg), out.ws, lazyf);
  for (long i = 1; i <= static_cast<long>(wc.s.size()); ++i) {
    out.lazy_steps += eng.run_iterate_block(i, wc.s.data(), 1);
  }
  out.fixup_cols = eng.fixup_cols();
  out.score = eng.finalize();
  out.segs = eng.segs();
  out.saturated = eng.saturated(static_cast<long>(wc.s.size()));
  return out;
}

// Bit-identical DP state: both H generations and the E carry. Both runs
// processed the same column count, so buffer parity matches.
template <class Ops>
void expect_same_state(const EngineRun<Ops>& fixup,
                       const EngineRun<Ops>& legacy) {
  EXPECT_EQ(fixup.score, legacy.score);
  const int padded = legacy.segs * Ops::kWidth;
  for (int off = 0; off < padded; ++off) {
    ASSERT_EQ(fixup.ws.h_prev[off], legacy.ws.h_prev[off]) << "H off " << off;
    ASSERT_EQ(fixup.ws.h_cur[off], legacy.ws.h_cur[off]) << "H' off " << off;
    ASSERT_EQ(fixup.ws.e[off], legacy.ws.e[off]) << "E off " << off;
  }
}

template <class Ops>
void check_worst_case(const WorstCase& wc = WorstCase()) {
  const auto legacy = run_engine<Ops>(wc, LazyF::Legacy);
  const auto fixup = run_engine<Ops>(wc, LazyF::Fixup);
  const auto cols = static_cast<std::uint64_t>(wc.s.size());
  const auto segs = static_cast<std::uint64_t>(legacy.segs);

  // The constructed column floods F across lanes: the legacy loop needs at
  // least one extra full pass per crossed lane boundary, the fixup at most
  // one pass total.
  EXPECT_GE(legacy.lazy_steps, cols * 2 * segs) << "legacy did not retry";
  EXPECT_LE(fixup.lazy_steps, cols * segs) << "fixup exceeded one pass";

  // Accounting: every column went through the fixup.
  EXPECT_EQ(legacy.fixup_cols, 0u);
  EXPECT_EQ(fixup.fixup_cols, cols);

  expect_same_state(fixup, legacy);
}

// The narrow widths: the worst case with a match that fits the int8
// matrix and keeps every score off the rails, then a local shape whose
// widest round weight, segs * extend * kWidth / 2, lies below -2^bits.
template <class Ops>
void check_narrow() {
  using T = typename Ops::value_type;
  const WorstCase flood(64, 4, 60);
  check_worst_case<Ops>(flood);
  EXPECT_FALSE(run_engine<Ops>(flood, LazyF::Fixup).saturated);

  const int extend = sizeof(T) == 1 ? 3 : 600;
  const WorstCase clamped(sizeof(T) == 1 ? 192 : 256, 4, 60, AlignKind::Local,
                          extend);
  const auto legacy =
      run_engine<Ops, AlignKind::Local>(clamped, LazyF::Legacy);
  const auto fixup = run_engine<Ops, AlignKind::Local>(clamped, LazyF::Fixup);
  ASSERT_LT(-static_cast<long>(fixup.segs) * extend * Ops::kWidth / 2,
            2L * std::numeric_limits<T>::min());
  EXPECT_FALSE(fixup.saturated);
  EXPECT_GT(fixup.score, 0);
  expect_same_state(fixup, legacy);
}

// Driver-level counters on the same worst case: the stats a search run
// would publish as kernel.lazyf.* must reflect the engine totals.
template <class Ops>
void check_driver_stats() {
  using T = typename Ops::value_type;
  const WorstCase wc;
  score::StripedProfile<T> prof;
  score::build_striped_profile<T>(
      prof, wc.q, score::profile_tables<T>(wc.m, T{0}), Ops::kWidth);
  const auto st = core::make_steps<T>(wc.cfg);

  core::Workspace<T> ws_f, ws_l;
  const auto rf = core::run_striped_iterate<Ops, AlignKind::Global, true>(
      prof, wc.s, st, ws_f, LazyF::Fixup);
  const auto rl = core::run_striped_iterate<Ops, AlignKind::Global, true>(
      prof, wc.s, st, ws_l, LazyF::Legacy);

  EXPECT_EQ(rf.score, rl.score);
  EXPECT_EQ(rf.stats.lazyf_fixup_cols, wc.s.size());
  EXPECT_EQ(rl.stats.lazyf_fixup_cols, 0u);
  EXPECT_GT(rl.stats.lazy_steps, rf.stats.lazy_steps);
}

#define AALIGN_LAZYF_TEST(TAG)                                        \
  TEST(LazyFWorstCase, TAG) {                                         \
    if (!simd::isa_available(simd::isa_kind<simd::TAG##Tag>()))       \
      GTEST_SKIP() << #TAG " not available on this machine";          \
    check_worst_case<simd::VecOps<std::int32_t, simd::TAG##Tag>>();   \
    check_driver_stats<simd::VecOps<std::int32_t, simd::TAG##Tag>>(); \
  }

#define AALIGN_LAZYF_NARROW_TEST(T, TAG)                             \
  TEST(LazyFWorstCase, T##_##TAG) {                                  \
    if (!simd::isa_available(simd::isa_kind<simd::TAG##Tag>()))      \
      GTEST_SKIP() << #TAG " not available on this machine";         \
    check_narrow<simd::VecOps<std::T, simd::TAG##Tag>>();            \
  }

AALIGN_LAZYF_TEST(Scalar)
AALIGN_LAZYF_NARROW_TEST(int8_t, Scalar)
AALIGN_LAZYF_NARROW_TEST(int16_t, Scalar)
#if defined(AALIGN_HAVE_SSE41)
AALIGN_LAZYF_TEST(Sse41)
AALIGN_LAZYF_NARROW_TEST(int8_t, Sse41)
AALIGN_LAZYF_NARROW_TEST(int16_t, Sse41)
#endif
#if defined(AALIGN_HAVE_AVX2)
AALIGN_LAZYF_TEST(Avx2)
AALIGN_LAZYF_NARROW_TEST(int8_t, Avx2)
AALIGN_LAZYF_NARROW_TEST(int16_t, Avx2)
#endif
#if defined(AALIGN_HAVE_AVX512)
AALIGN_LAZYF_TEST(Avx512)
#endif
#if defined(AALIGN_HAVE_AVX512BW) && defined(__AVX512VBMI__)
AALIGN_LAZYF_TEST(Avx512Bw)
AALIGN_LAZYF_NARROW_TEST(int8_t, Avx512Bw)
AALIGN_LAZYF_NARROW_TEST(int16_t, Avx512Bw)
#endif

// Farrar-safe oracle round: the worst-case matrix above is deliberately
// outside the Farrar-shortcut precondition (both paths share the same
// shortcut, so bit-identity still holds); this round confirms the fixup
// against the sequential oracle under a safe configuration, narrow widths
// included, through the public API.
TEST(LazyFWorstCase, FarrarSafeOracle) {
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(0x1a2f);
  const auto q = test::random_protein(rng, 300);
  const auto s = test::mutate(rng, q, 0.03, 0.01);  // high identity

  for (AlignKind kind : {AlignKind::Local, AlignKind::Global}) {
    AlignConfig cfg;
    cfg.kind = kind;
    cfg.pen = Penalties::symmetric(10, 2);
    const long expect = core::align_sequential(m, cfg, q, s);
    for (simd::IsaKind isa : test::available_isas()) {
      for (LazyF lazyf : {LazyF::Fixup, LazyF::Legacy}) {
        cfg.lazyf = lazyf;
        core::QueryOptions opt;
        opt.isa = isa;
        opt.width = ScoreWidth::Auto;
        opt.strategy = Strategy::StripedIterate;
        EXPECT_EQ(align_pair(m, cfg, q, s, opt).score, expect)
            << to_string(kind) << " " << lazyf_name(lazyf) << " "
            << simd::isa_name(isa);
      }
    }
  }
}

}  // namespace
