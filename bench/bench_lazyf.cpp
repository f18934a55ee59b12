// Adversarial-input lazy-F benchmark: the perf headline for the
// deconstructed scan-fixup correction (arXiv:1909.00899 applied to the
// paper's Alg. 2 loop). The workload is the generator's adversarial mode
// - high-identity subjects with long indels - which keeps H large
// everywhere and forces deep cross-lane F carries, the regime where the
// legacy convergence loop re-runs the column over and over.
//
// Per platform: single-pair striped-iterate GCUPS under the scan-fixup
// path vs the legacy loop (LazyF knob), plus the fixup_cols counter and
// each path's lazy steps, which explain the difference. Headline:
// adversarial_fixup_gcups on the last (widest) platform - higher is
// better, gated by CI against BENCH_bench_lazyf.quick.json.
#include <cstdio>

#include "bench_common.h"
#include "obs/instrument.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(0xADF);

  const std::size_t qlen = scaled(3000);
  const seq::Sequence qseq = gen.protein(qlen, "Qadv");
  const auto query = matrix.alphabet().encode(qseq.residues);
  // Defaults of AdversarialSpec ARE the headline workload; restated here
  // so the report is self-describing.
  seq::AdversarialSpec spec;
  const auto sseq = gen.adversarial_subject(qseq, spec);
  const auto subject = matrix.alphabet().encode(sseq.residues);
  const double cells =
      static_cast<double>(query.size()) * static_cast<double>(subject.size());

  AlignConfig cfg;  // SW-affine, as in the paper's headline figures
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  BenchReport report("bench_lazyf");
  report.set_workload("query_len", query.size());
  report.set_workload("subject_len", subject.size());
  report.set_workload("identity", spec.identity);
  report.set_workload("gap_rate", spec.gap_rate);

  double headline_gcups = 0.0;
  std::printf("adversarial pair: q=%zu s=%zu (identity %.2f, gaps %zu-%zu)\n",
              query.size(), subject.size(), spec.identity, spec.min_gap,
              spec.max_gap);
  std::printf("%-14s %14s %14s %9s %12s\n", "platform", "fixup-GCUPS",
              "legacy-GCUPS", "speedup", "fixup_cols");

  for (const Platform& plat : platforms()) {
    double gcups[2] = {0.0, 0.0};
    AlignResult results[2];
    for (const LazyF lazyf : {LazyF::Fixup, LazyF::Legacy}) {
      AlignConfig c = cfg;
      c.lazyf = lazyf;
      core::QueryOptions opt;
      opt.isa = plat.isa;
      opt.width = ScoreWidth::W32;
      opt.strategy = Strategy::StripedIterate;
      PairAligner aligner(matrix, c, opt);
      aligner.set_query(query);
      const int slot = lazyf == LazyF::Legacy;
      const double t =
          time_median([&] { results[slot] = aligner.align(subject); }, 5);
      gcups[slot] = cells / t / 1e9;
    }
    if (results[0].score != results[1].score) {
      std::fprintf(stderr, "score mismatch: fixup %ld legacy %ld\n",
                   results[0].score, results[1].score);
      return 1;
    }
    const double speedup = gcups[1] > 0 ? gcups[0] / gcups[1] : 0.0;
    std::printf("%-14s %14.3f %14.3f %8.2fx %12llu\n", plat.label, gcups[0],
                gcups[1], speedup,
                static_cast<unsigned long long>(
                    results[0].stats.lazyf_fixup_cols));

    obs::Json row = obs::Json::object();
    row.set("platform", plat.label);
    row.set("fixup_gcups", gcups[0]);
    row.set("legacy_gcups", gcups[1]);
    row.set("fixup_vs_legacy", speedup);
    row.set("lazy_steps_fixup", results[0].stats.lazy_steps);
    row.set("lazy_steps_legacy", results[1].stats.lazy_steps);
    row.set("lazyf_fixup_cols", results[0].stats.lazyf_fixup_cols);
    report.add_row("adversarial", std::move(row));

    headline_gcups = gcups[0];  // last platform = widest available ISA
  }

  std::printf(
      "shape: the legacy loop pays one extra column pass per crossed lane "
      "of F carry; the fixup resolves the carry in one scan, so its GCUPS "
      "should stay well above legacy's on this workload.\n");
  report.set_headline("adversarial_fixup_gcups", headline_gcups);
  return report.write("BENCH_bench_lazyf.json") ? 0 : 1;
}
