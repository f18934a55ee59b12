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
//   - kernel.lazyf.* accounting: fixup_cols == columns, saved_iters > 0
#include <gtest/gtest.h>

#include <cstdint>
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

// Query: one 'A' then mismatching 'C's; subject: all 'A'. With a match
// score far above the query length, every column's F chain from H(i,1)
// dominates the rest of the column.
struct WorstCase {
  score::ScoreMatrix m = score::ScoreMatrix::dna(200, 4);
  std::vector<std::uint8_t> q;
  std::vector<std::uint8_t> s;
  AlignConfig cfg;

  explicit WorstCase(std::size_t qlen = 64, std::size_t cols = 4) {
    const auto& alpha = m.alphabet();
    q.assign(qlen, static_cast<std::uint8_t>(alpha.ctoi('C')));
    q[0] = static_cast<std::uint8_t>(alpha.ctoi('A'));
    s.assign(cols, static_cast<std::uint8_t>(alpha.ctoi('A')));
    cfg.kind = AlignKind::Global;
    cfg.pen = Penalties::symmetric(2, 1);  // slow F decay -> deep carries
  }
};

template <class Ops>
struct EngineRun {
  core::Workspace<typename Ops::value_type> ws;
  std::uint64_t lazy_steps = 0;
  std::uint64_t fixup_cols = 0;
  std::uint64_t saved_iters = 0;
  long score = 0;
  int segs = 0;
};

template <class Ops>
EngineRun<Ops> run_engine(const WorstCase& wc, LazyF lazyf) {
  using T = typename Ops::value_type;
  score::StripedProfile<T> prof;
  score::build_striped_profile<T>(prof, wc.q, wc.m, Ops::kWidth, T{0});
  EngineRun<Ops> out;
  core::ColumnEngine<Ops, AlignKind::Global, true> eng(
      prof, core::make_steps<T>(wc.cfg), out.ws, lazyf);
  for (long i = 1; i <= static_cast<long>(wc.s.size()); ++i) {
    out.lazy_steps += eng.run_iterate_block(i, wc.s.data(), 1);
  }
  out.fixup_cols = eng.fixup_cols();
  out.saved_iters = eng.saved_iters();
  out.score = eng.finalize();
  out.segs = eng.segs();
  return out;
}

template <class Ops>
void check_worst_case() {
  const WorstCase wc;
  const auto legacy = run_engine<Ops>(wc, LazyF::Legacy);
  const auto fixup = run_engine<Ops>(wc, LazyF::Fixup);
  const auto cols = static_cast<std::uint64_t>(wc.s.size());
  const auto segs = static_cast<std::uint64_t>(legacy.segs);

  // The constructed column floods F across lanes: the legacy loop needs at
  // least one extra full pass per crossed lane boundary, the fixup at most
  // one pass total.
  EXPECT_GE(legacy.lazy_steps, cols * 2 * segs) << "legacy did not retry";
  EXPECT_LE(fixup.lazy_steps, cols * segs) << "fixup exceeded one pass";

  // Accounting: every column went through the fixup, and the saved-iters
  // estimate reflects the retries the legacy loop actually spent.
  EXPECT_EQ(legacy.fixup_cols, 0u);
  EXPECT_EQ(legacy.saved_iters, 0u);
  EXPECT_EQ(fixup.fixup_cols, cols);
  EXPECT_GT(fixup.saved_iters, 0u);

  EXPECT_EQ(fixup.score, legacy.score);

  // Bit-identical DP state: both H generations and the E carry. Both runs
  // processed the same column count, so buffer parity matches.
  const int padded = legacy.segs * Ops::kWidth;
  for (int off = 0; off < padded; ++off) {
    ASSERT_EQ(fixup.ws.h_prev[off], legacy.ws.h_prev[off]) << "H off " << off;
    ASSERT_EQ(fixup.ws.h_cur[off], legacy.ws.h_cur[off]) << "H' off " << off;
    ASSERT_EQ(fixup.ws.e[off], legacy.ws.e[off]) << "E off " << off;
  }
}

// Driver-level counters on the same worst case: the stats a search run
// would publish as kernel.lazyf.* must reflect the engine totals.
template <class Ops>
void check_driver_stats() {
  using T = typename Ops::value_type;
  const WorstCase wc;
  score::StripedProfile<T> prof;
  score::build_striped_profile<T>(prof, wc.q, wc.m, Ops::kWidth, T{0});
  const auto st = core::make_steps<T>(wc.cfg);

  core::Workspace<T> ws_f, ws_l;
  const auto rf = core::run_striped_iterate<Ops, AlignKind::Global, true>(
      prof, wc.s, st, ws_f, LazyF::Fixup);
  const auto rl = core::run_striped_iterate<Ops, AlignKind::Global, true>(
      prof, wc.s, st, ws_l, LazyF::Legacy);

  EXPECT_EQ(rf.score, rl.score);
  EXPECT_EQ(rf.stats.lazyf_fixup_cols, wc.s.size());
  EXPECT_GT(rf.stats.lazyf_saved_iters, 0u);
  EXPECT_EQ(rl.stats.lazyf_fixup_cols, 0u);
  EXPECT_EQ(rl.stats.lazyf_saved_iters, 0u);
  EXPECT_GT(rl.stats.lazy_steps, rf.stats.lazy_steps);
}

#define AALIGN_LAZYF_TEST(TAG)                                        \
  TEST(LazyFWorstCase, TAG) {                                         \
    if (!simd::isa_available(simd::isa_kind<simd::TAG##Tag>()))       \
      GTEST_SKIP() << #TAG " not available on this machine";          \
    check_worst_case<simd::VecOps<std::int32_t, simd::TAG##Tag>>();   \
    check_driver_stats<simd::VecOps<std::int32_t, simd::TAG##Tag>>(); \
  }

AALIGN_LAZYF_TEST(Scalar)
#if defined(AALIGN_HAVE_SSE41)
AALIGN_LAZYF_TEST(Sse41)
#endif
#if defined(AALIGN_HAVE_AVX2)
AALIGN_LAZYF_TEST(Avx2)
#endif
#if defined(AALIGN_HAVE_AVX512)
AALIGN_LAZYF_TEST(Avx512)
#endif
#if defined(AALIGN_HAVE_AVX512BW) && defined(__AVX512VBMI__)
AALIGN_LAZYF_TEST(Avx512Bw)
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
            << to_string(kind) << " " << to_string(lazyf) << " "
            << simd::isa_name(isa);
      }
    }
  }
}

}  // namespace
