// Figure 9: AAlign-generated kernels vs. the optimized sequential
// baseline.
//
// Paper setup: queries of several lengths against subject Q282; 32-bit
// scores; 8 panels = {SW, NW} x {linear, affine} x {CPU, MIC}; bars are
// speedups of striped-iterate and striped-scan over the sequential code.
// Paper result: striped-scan 4-6.2x (CPU) / 9.1-16x (MIC); striped-iterate
// 4.7-10x (CPU) / 9.5-25.9x (MIC); iterate's spread is wider because its
// correction cost is input-dependent.
#include <cstdio>

#include "baselines/sequential_opt.h"
#include "bench_common.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(2016);

  const std::size_t query_lens[] = {110, 420, 1000, 2000, 4000, 8000};
  const std::size_t subject_len = 282;
  const auto subject =
      matrix.alphabet().encode(gen.protein(scaled(subject_len)).residues);

  std::printf("Figure 9: AAlign vs optimized sequential (subject Q%zu, "
              "32-bit int)\n\n",
              subject.size());
  std::printf("%-12s %-10s %-7s %10s %10s %10s %10s %10s\n", "platform",
              "config", "query", "seq(ms)", "iter(ms)", "scan(ms)",
              "iter-spd", "scan-spd");

  BenchReport report("fig09_speedup_vs_sequential");
  report.set_workload("subject_len", subject.size());
  double speedup_sum = 0.0;
  int speedup_n = 0;

  for (const Platform& plat : platforms()) {
    for (const ConfigCase& cc : paper_configs()) {
      const AlignConfig cfg = make_config(cc);
      for (std::size_t qlen : query_lens) {
        const auto query =
            matrix.alphabet().encode(gen.protein(scaled(qlen)).residues);

        const double t_seq = time_median([&] {
          baselines::align_sequential_opt(matrix, cfg, query, subject);
        });

        core::QueryOptions opt;
        opt.isa = plat.isa;
        opt.width = ScoreWidth::W32;

        opt.strategy = Strategy::StripedIterate;
        PairAligner it(matrix, cfg, opt);
        it.set_query(query);
        long s_it = 0;
        const double t_it = time_median([&] { s_it = it.align(subject).score; });

        opt.strategy = Strategy::StripedScan;
        PairAligner sc(matrix, cfg, opt);
        sc.set_query(query);
        long s_sc = 0;
        const double t_sc = time_median([&] { s_sc = sc.align(subject).score; });

        const long s_ref =
            baselines::align_sequential_opt(matrix, cfg, query, subject);
        if (s_it != s_ref || s_sc != s_ref) {
          std::printf("SCORE MISMATCH (%ld/%ld vs %ld)\n", s_it, s_sc, s_ref);
          return 1;
        }

        std::printf("%-12s %-10s Q%-6zu %10.3f %10.3f %10.3f %9.1fx %9.1fx\n",
                    plat.label, cc.label, query.size(), t_seq * 1e3,
                    t_it * 1e3, t_sc * 1e3, t_seq / t_it, t_seq / t_sc);

        obs::Json row = obs::Json::object();
        row.set("platform", plat.label);
        row.set("config", cc.label);
        row.set("query_len", query.size());
        row.set("sequential_seconds", t_seq);
        row.set("iterate_seconds", t_it);
        row.set("scan_seconds", t_sc);
        row.set("iterate_speedup", t_seq / t_it);
        row.set("scan_speedup", t_seq / t_sc);
        report.add_row("panels", std::move(row));
        speedup_sum += t_seq / t_it + t_seq / t_sc;
        speedup_n += 2;
      }
    }
  }
  std::printf(
      "\npaper shape: both strategies well above 1x; iterate's speedup "
      "varies more across queries than scan's; wider vectors (MIC) give "
      "larger speedups.\n");
  report.set_headline("mean_striped_speedup",
                      speedup_n > 0 ? speedup_sum / speedup_n : 0.0);
  return report.write("BENCH_fig09_speedup.json") ? 0 : 1;
}
