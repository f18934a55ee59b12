// Figure 2: the motivation example - neither vectorization strategy wins
// everywhere; which one is faster depends on the algorithm, the gap
// system, and how similar the input pair is.
//
// Paper setup (on MIC): a handful of (algorithm, gap, input) conditions
// with iterate winning some and scan winning others. We reproduce the
// four paper configs x {dissimilar, similar} pairs on the widest
// platform and report the per-condition winner.
#include <cstdio>

#include "bench_common.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(42);

  const Platform plat = platforms().back();  // paper uses MIC here
  const std::size_t qlen = scaled(2000);
  const seq::Sequence qseq = gen.protein(qlen, "Q2000");
  const auto query = matrix.alphabet().encode(qseq.residues);

  struct InputCase {
    const char* label;
    seq::Sequence subject;
  };
  const InputCase inputs[] = {
      {"dissimilar", gen.protein(qlen)},
      {"similar",
       seq::make_similar_subject(gen, qseq,
                                 {seq::Level::Hi, seq::Level::Hi})},
  };

  std::printf("Figure 2: iterate vs scan under various conditions (%s)\n\n",
              plat.label);
  std::printf("%-10s %-12s %10s %10s   %s\n", "config", "input", "iter(ms)",
              "scan(ms)", "winner");

  BenchReport report("fig02_motivation");
  report.set_isa(plat.isa);
  report.set_workload("query_len", query.size());

  int iterate_wins = 0, scan_wins = 0;
  for (const ConfigCase& cc : paper_configs()) {
    const AlignConfig cfg = make_config(cc);
    for (const InputCase& in : inputs) {
      const auto subject = matrix.alphabet().encode(in.subject.residues);

      core::QueryOptions opt;
      opt.isa = plat.isa;
      opt.width = ScoreWidth::W32;

      opt.strategy = Strategy::StripedIterate;
      PairAligner it(matrix, cfg, opt);
      it.set_query(query);
      const double t_it = time_median([&] { it.align(subject); });

      opt.strategy = Strategy::StripedScan;
      PairAligner sc(matrix, cfg, opt);
      sc.set_query(query);
      const double t_sc = time_median([&] { sc.align(subject); });

      const bool iter_wins = t_it <= t_sc;
      (iter_wins ? iterate_wins : scan_wins)++;
      std::printf("%-10s %-12s %10.3f %10.3f   %s\n", cc.label, in.label,
                  t_it * 1e3, t_sc * 1e3, iter_wins ? "iterate" : "scan");

      obs::Json row = obs::Json::object();
      row.set("config", cc.label);
      row.set("input", in.label);
      row.set("iterate_seconds", t_it);
      row.set("scan_seconds", t_sc);
      row.set("winner", iter_wins ? "iterate" : "scan");
      report.add_row("conditions", std::move(row));
    }
  }
  std::printf("\nconditions won: iterate %d, scan %d\n", iterate_wins,
              scan_wins);
  std::printf(
      "paper shape: both counters nonzero - no single strategy dominates, "
      "motivating the hybrid method.\n");
  report.set_headline("iterate_win_share",
                      static_cast<double>(iterate_wins) /
                          static_cast<double>(iterate_wins + scan_wins));
  return report.write("BENCH_fig02_motivation.json") ? 0 : 1;
}
