// The striped kernels' two profile layouts (score/profile.h) against each
// other on the AVX-512BW backend, whose one-instruction register lookup
// serves the lookup layout. The same query, subject and gaps run through
// run_striped_iterate, run_striped_scan and run_hybrid once with the rows
// (score::build_striped_profile) and once with the striped index plus
// letter tables (score::build_lookup_profile). Score, saturation flag and
// every KernelStats field must match, for every kind and gap system, all
// three lane widths, query lengths around the vector width and a long
// one, and both pads (-inf and 0). Runtime-gated on the CPU like
// test_lazyf.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/workspace.h"
#include "score/profile.h"
#include "simd/vec_avx512bw.h"
#include "test_helpers.h"

using namespace aalign;

namespace {

#if defined(__AVX512BW__) && defined(__AVX512VBMI__)

void expect_same_result(const KernelResult& rows, const KernelResult& lookup,
                        const std::string& what) {
  EXPECT_EQ(rows.score, lookup.score) << what;
  EXPECT_EQ(rows.saturated, lookup.saturated) << what;
  EXPECT_EQ(rows.cancelled, lookup.cancelled) << what;
  EXPECT_EQ(rows.stats.columns, lookup.stats.columns) << what;
  EXPECT_EQ(rows.stats.lazy_steps, lookup.stats.lazy_steps) << what;
  EXPECT_EQ(rows.stats.iterate_columns, lookup.stats.iterate_columns) << what;
  EXPECT_EQ(rows.stats.scan_columns, lookup.stats.scan_columns) << what;
  EXPECT_EQ(rows.stats.switches, lookup.stats.switches) << what;
  EXPECT_EQ(rows.stats.lazyf_fixup_cols, lookup.stats.lazyf_fixup_cols)
      << what;
}

template <class Ops, AlignKind K, bool Affine>
void compare_drivers(const score::StripedProfile<typename Ops::value_type>& rows,
                     const score::StripedProfile<typename Ops::value_type>& lookup,
                     std::span<const std::uint8_t> subject,
                     const AlignConfig& cfg, const std::string& what) {
  using T = typename Ops::value_type;
  const core::Steps<T> st = core::make_steps<T>(cfg);
  // A window and stride this short make the hybrid switch often.
  HybridParams hp;
  hp.window = 4;
  hp.stride = 8;
  hp.threshold = 0.05;
  core::Workspace<T> ws_r;
  core::Workspace<T> ws_l;
  expect_same_result(
      core::run_striped_iterate<Ops, K, Affine>(rows, subject, st, ws_r),
      core::run_striped_iterate<Ops, K, Affine>(lookup, subject, st, ws_l),
      what + " iterate");
  expect_same_result(
      core::run_striped_iterate<Ops, K, Affine>(rows, subject, st, ws_r,
                                                LazyF::Legacy),
      core::run_striped_iterate<Ops, K, Affine>(lookup, subject, st, ws_l,
                                                LazyF::Legacy),
      what + " iterate legacy");
  expect_same_result(
      core::run_striped_scan<Ops, K, Affine>(rows, subject, st, ws_r),
      core::run_striped_scan<Ops, K, Affine>(lookup, subject, st, ws_l),
      what + " scan");
  expect_same_result(
      core::run_hybrid<Ops, K, Affine>(rows, subject, st, ws_r, hp),
      core::run_hybrid<Ops, K, Affine>(lookup, subject, st, ws_l, hp),
      what + " hybrid");
}

template <class Ops, AlignKind K>
void compare_kind(const score::StripedProfile<typename Ops::value_type>& rows,
                  const score::StripedProfile<typename Ops::value_type>& lookup,
                  std::span<const std::uint8_t> subject,
                  const std::string& what) {
  AlignConfig cfg;
  cfg.kind = K;
  cfg.pen = Penalties::symmetric(10, 2);
  compare_drivers<Ops, K, true>(rows, lookup, subject, cfg, what + " affine");
  cfg.pen = Penalties::symmetric(0, 4);
  compare_drivers<Ops, K, false>(rows, lookup, subject, cfg, what + " linear");
}

template <class T>
void rows_and_lookup_agree() {
  using Ops = simd::VecOps<T, simd::Avx512BwTag>;
  static_assert(simd::HasOneOpLookup<Ops>);
  constexpr int W = Ops::kWidth;
  const auto& m = score::ScoreMatrix::blosum62();
  std::mt19937_64 rng(25 + sizeof(T));
  for (const int len : {1, W - 1, W, W + 1, 2 * W + 1, 8000}) {
    const std::vector<std::uint8_t> q = test::random_protein(rng, len);
    // A close homolog (lazy-F work, hybrid switches, int8 saturation on
    // the long query) and an unrelated subject.
    const std::vector<std::uint8_t> q_head(
        q.begin(), q.begin() + std::min<std::ptrdiff_t>(len, 600));
    const std::vector<std::vector<std::uint8_t>> subjects = {
        test::mutate(rng, q_head, 0.1, 0.02), test::random_protein(rng, 90)};
    for (const T pad : {simd::neg_inf<T>(), T{0}}) {
      score::StripedProfile<T> rows;
      score::build_striped_profile<T>(rows, q, m.letter_tables(pad), W);
      score::StripedProfile<T> lookup;
      score::build_lookup_profile<T>(lookup, q, m.letter_tables(pad), W,
                                     core::index_code<Ops>());
      ASSERT_FALSE(rows.lookup());
      ASSERT_TRUE(lookup.lookup());
      for (std::size_t s = 0; s < subjects.size(); ++s) {
        const std::string what = std::string("T")
                                     .append(std::to_string(sizeof(T) * 8))
                                     .append(" m=")
                                     .append(std::to_string(len))
                                     .append(" pad=")
                                     .append(std::to_string(pad))
                                     .append(" subject ")
                                     .append(std::to_string(s));
        const auto& subj = subjects[s];
        compare_kind<Ops, AlignKind::Local>(rows, lookup, subj,
                                            what + " local");
        compare_kind<Ops, AlignKind::Global>(rows, lookup, subj,
                                             what + " global");
        compare_kind<Ops, AlignKind::SemiGlobal>(rows, lookup, subj,
                                                 what + " semiglobal");
        compare_kind<Ops, AlignKind::SemiGlobalQuery>(rows, lookup, subj,
                                                      what + " sgq");
        compare_kind<Ops, AlignKind::Overlap>(rows, lookup, subj,
                                              what + " overlap");
      }
    }
  }
}

TEST(ProfileLayout, RowsAndLookupAgreeOnAvx512Bw) {
  if (!simd::isa_available(simd::IsaKind::Avx512Bw)) {
    GTEST_SKIP() << "AVX-512BW with VBMI not available on this CPU";
  }
  rows_and_lookup_agree<std::int8_t>();
  rows_and_lookup_agree<std::int16_t>();
  rows_and_lookup_agree<std::int32_t>();
}

#endif  // __AVX512BW__ && __AVX512VBMI__

}  // namespace
