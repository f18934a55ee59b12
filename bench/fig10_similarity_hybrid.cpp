// Figure 10: striped-iterate vs striped-scan vs hybrid across the 9
// QC_MI similarity combinations.
//
// Paper setup: Q2000 against 9 subjects picked from BLAST hits at
// {hi,md,lo} x {hi,md,lo} query-coverage/max-identity bands; panels are
// {SW, NW} x {linear, affine} x {CPU, MIC}. Paper result: with linear
// gaps iterate always wins and hybrid falls back to it; with affine gaps
// scan wins on similar pairs (hi/md bands, up to 1.9x CPU / 3.5x MIC over
// iterate) while iterate wins on dissimilar ones; hybrid tracks the
// better of the two everywhere (approximating the winner in corner
// cases).
#include <cstdio>

#include "bench_common.h"
#include "core/stats.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(1018);

  const std::size_t qlen = scaled(2000);
  const seq::Sequence qseq = gen.protein(qlen, "Q2000");
  const auto query = matrix.alphabet().encode(qseq.residues);

  // The 9 QC_MI subjects, in the paper's x-axis order.
  struct Subject {
    std::string label;
    std::vector<std::uint8_t> enc;
  };
  std::vector<Subject> subjects;
  for (seq::Level qc : {seq::Level::Hi, seq::Level::Md, seq::Level::Lo}) {
    for (seq::Level mi : {seq::Level::Hi, seq::Level::Md, seq::Level::Lo}) {
      const seq::SimilaritySpec spec{qc, mi};
      const seq::Sequence s = seq::make_similar_subject(gen, qseq, spec);
      subjects.push_back({spec.label(), matrix.alphabet().encode(s.residues)});
    }
  }

  std::printf("Figure 10: iterate / scan / hybrid across QC_MI similarity "
              "(query Q%zu)\n\n", query.size());

  BenchReport report("fig10_similarity_hybrid");
  report.set_workload("query_len", query.size());
  int hybrid_good_total = 0, cells_total = 0;

  for (const Platform& plat : platforms()) {
    for (const ConfigCase& cc : paper_configs()) {
      const AlignConfig cfg = make_config(cc);
      std::printf("--- %s, %s ---\n", plat.label, cc.label);
      std::printf("%-8s %10s %10s %10s   %-8s %s\n", "QC_MI", "iter(ms)",
                  "scan(ms)", "hyb(ms)", "best", "hybrid-vs-best");

      int hybrid_good = 0;
      for (const Subject& sub : subjects) {
        double t[3];
        const Strategy strats[3] = {Strategy::StripedIterate,
                                    Strategy::StripedScan, Strategy::Hybrid};
        for (int k = 0; k < 3; ++k) {
          core::QueryOptions opt;
          opt.isa = plat.isa;
          opt.width = ScoreWidth::W32;
          opt.strategy = strats[k];
          PairAligner al(matrix, cfg, opt);
          al.set_query(query);
          t[k] = time_median([&] { al.align(sub.enc); }, 3);
        }
        const double best = std::min(t[0], t[1]);
        const char* best_name = t[0] <= t[1] ? "iterate" : "scan";
        const double ratio = t[2] / best;
        if (ratio < 1.25) ++hybrid_good;
        std::printf("%-8s %10.3f %10.3f %10.3f   %-8s %6.2fx\n",
                    sub.label.c_str(), t[0] * 1e3, t[1] * 1e3, t[2] * 1e3,
                    best_name, ratio);

        obs::Json row = obs::Json::object();
        row.set("platform", plat.label);
        row.set("config", cc.label);
        row.set("similarity", sub.label);
        row.set("iterate_seconds", t[0]);
        row.set("scan_seconds", t[1]);
        row.set("hybrid_seconds", t[2]);
        row.set("best", best_name);
        row.set("hybrid_vs_best", ratio);
        report.add_row("subjects", std::move(row));
        ++cells_total;
      }
      hybrid_good_total += hybrid_good;
      std::printf("hybrid within 1.25x of the better strategy on %d/9 "
                  "subjects\n\n", hybrid_good);
    }
  }
  report.set_headline("hybrid_good_share",
                      cells_total > 0 ? static_cast<double>(hybrid_good_total) /
                                            static_cast<double>(cells_total)
                                      : 0.0);
  std::printf(
      "paper shape: linear-gap panels - iterate always wins, hybrid rides "
      "it; affine panels - scan wins hi/md-similarity subjects, iterate "
      "wins dissimilar ones; hybrid tracks the winner.\n");
  return report.write("BENCH_fig10_similarity.json") ? 0 : 1;
}
