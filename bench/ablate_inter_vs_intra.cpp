// Ablation: inter-sequence vs intra-sequence vectorization for database
// search (the two SWAPHI modes the paper distinguishes in Sec. VI-C; it
// evaluates the intra mode, we quantify both).
//
// Inter-sequence aligns one subject per lane (element-wise recurrences,
// zero correction overhead, but a score-profile build per subject column
// and padding waste on length-heterogeneous batches).
// Intra-sequence is the striped kernel (profile-row loads, but lazy-F /
// scan correction work). Both legs take the same SearchOptions, so both
// run 32-bit lanes on the same ISA and the comparison isolates the
// vectorization axis; the inter-lanes column shows it.
#include <cstdio>

#include "bench_common.h"
#include "search/database_search.h"
#include "search/inter_search.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  seq::SequenceGenerator gen(333);

  seq::Database db(score::Alphabet::protein(),
                   gen.protein_database(scaled(1500), 290.0));

  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  std::printf("Inter- vs intra-sequence database search (32-bit lanes); "
              "db: %zu seqs / %zu residues\n\n",
              db.size(), db.total_residues());

  BenchReport report("ablate_inter_vs_intra");
  report.set_workload("db_sequences", db.size());
  report.set_workload("db_residues", db.total_residues());
  report.set_threads(4);
  double last_ratio = 0.0;

  for (const Platform& plat : platforms()) {
    std::printf("--- %s ---\n", plat.label);
    std::printf("%-7s %12s %12s %12s %12s %11s\n", "query", "intra(s)",
                "inter(s)", "intra-GCUPS", "inter-GCUPS", "inter-lanes");
    for (std::size_t qlen : {100, 300, 1000, 3000}) {
      const auto q = matrix.alphabet().encode(gen.protein(qlen).residues);

      search::SearchOptions opt;
      opt.threads = 4;
      opt.keep_all_scores = false;
      opt.query.strategy = Strategy::Hybrid;
      opt.query.isa = plat.isa;
      opt.query.width = ScoreWidth::W32;
      search::DatabaseSearch intra(matrix, cfg, opt);
      const auto r_intra = intra.search(q, db);

      // Same options: W32 makes the inter ladder run its int32 tier only.
      search::InterSequenceSearch inter(matrix, pen, opt);
      const auto r_inter = inter.search(q, db);
      // Lanes of the first tier that ran: 8 on AVX2, 16 on AVX-512 at int32.
      int inter_lanes = 0;
      for (const search::InterTierStats& t : r_inter.tiers) {
        if (t.subjects > 0) {
          inter_lanes = t.lanes;
          break;
        }
      }

      std::printf("Q%-6zu %12.3f %12.3f %12.2f %12.2f %11d\n", qlen,
                  r_intra.seconds, r_inter.seconds, r_intra.gcups,
                  r_inter.gcups, inter_lanes);

      obs::Json row = obs::Json::object();
      row.set("platform", plat.label);
      row.set("query_len", qlen);
      row.set("intra_seconds", r_intra.seconds);
      row.set("inter_seconds", r_inter.seconds);
      row.set("intra_gcups", r_intra.gcups);
      row.set("inter_gcups", r_inter.gcups);
      row.set("inter_lanes", inter_lanes);
      report.add_row("queries", std::move(row));
      if (r_intra.gcups > 0) last_ratio = r_inter.gcups / r_intra.gcups;
    }
    std::printf("\n");
  }
  std::printf(
      "reading: inter-sequence has input-independent cost (no corrections) "
      "but builds a score profile per subject column; intra-sequence "
      "amortizes profile loads but pays correction work that grows with "
      "similarity.\n");
  report.set_headline("inter_vs_intra_gcups", last_ratio);
  return report.write("BENCH_ablate_inter_vs_intra.json") ? 0 : 1;
}
