// Figure 11: multi-threaded AAlign Smith-Waterman (affine) vs the
// highly-optimized tools, searching a whole protein database.
//
// Paper setup: swiss-prot (~570k sequences); CPU panel compares AAlign
// (short/16-bit kernels, hybrid) against SWPS3 (adaptive char/short,
// iterate); MIC panel compares AAlign (int/32-bit, hybrid) against SWAPHI
// (int, intra-sequence iterate). Queries of increasing length. Paper
// result: AAlign up to 2.5x over SWPS3 (short queries), SWPS3 ahead on
// the longest query (its 8-bit buffers halve cache pressure); AAlign
// ~1.6x over SWAPHI on MIC.
//
// Here: a Swiss-Prot-like synthetic database (log-normal lengths, seeded
// with a few real homologs of each query so the adaptive paths trigger),
// scaled by AALIGN_BENCH_SCALE (default 2000 sequences). Both tools run as
// configurations of the same DatabaseSearch executor as AAlign; only the
// kernel options differ.
#include <cstdio>

#include "bench_common.h"
#include "search/database_search.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

namespace {

seq::Database make_database(seq::SequenceGenerator& gen,
                            const std::vector<seq::Sequence>& queries) {
  auto raw = gen.protein_database(scaled(2000), 290.0, 0.55, 30, 4000);
  // Plant homologs so score distributions (and SWPS3's 8->16 promotions)
  // look like a real search.
  for (const seq::Sequence& q : queries) {
    for (seq::Level mi : {seq::Level::Hi, seq::Level::Md}) {
      raw.push_back(
          seq::make_similar_subject(gen, q, {seq::Level::Hi, mi}));
    }
  }
  return seq::Database(score::Alphabet::protein(), raw);
}

// SWPS3 (Szalkowski et al. 2008): striped-iterate Smith-Waterman on
// 128-bit SSE whose buffers are char (8-bit) first, retrying a subject
// wider only when 8-bit saturates. The char working set halves cache
// pressure, which is why SWPS3 overtakes AAlign's all-short kernel on long
// queries (paper Sec. VI-C). No hybrid, no scan: iterate only. The Auto
// ladder goes on to int32 where SWPS3 stops at short, so a subject above
// the int16 rail is scored exactly rather than clipped.
search::SearchOptions swps3_options(simd::IsaKind isa) {
  search::SearchOptions opt;
  opt.threads = 4;
  opt.query.strategy = Strategy::StripedIterate;
  opt.query.isa = isa;
  opt.query.width = ScoreWidth::Auto;
  return opt;
}

// SWAPHI (Liu & Schmidt 2014): the intra-sequence, 32-bit int mode on the
// 512-bit backend, the SWAPHI configuration the paper evaluates on the
// Xeon Phi. Striped-iterate only: SWAPHI has no scan or hybrid path.
search::SearchOptions swaphi_options(simd::IsaKind isa) {
  search::SearchOptions opt;
  opt.threads = 4;
  opt.query.strategy = Strategy::StripedIterate;
  opt.query.isa = isa;
  opt.query.width = ScoreWidth::W32;
  return opt;
}

}  // namespace

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  const Penalties pen = Penalties::symmetric(10, 2);
  seq::SequenceGenerator gen(1105);

  const std::size_t query_lens[] = {110, 250, 500, 1000, 2000, 4000};
  std::vector<seq::Sequence> queries;
  for (std::size_t len : query_lens) {
    char id[32];
    std::snprintf(id, sizeof(id), "Q%zu", len);
    queries.push_back(gen.protein(len, id));
  }

  seq::Database db = make_database(gen, queries);
  std::printf("Figure 11: whole-database SW-affine search; database: %zu "
              "sequences, %zu residues\n\n",
              db.size(), db.total_residues());

  BenchReport report("fig11_database_tools");
  report.set_workload("db_sequences", db.size());
  report.set_workload("db_residues", db.total_residues());
  report.set_threads(4);
  double speedup_sum = 0.0;
  int speedup_n = 0;

  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = pen;

  // --- CPU panel: AAlign (16-bit hybrid, AVX2) vs SWPS3 (char->short
  // iterate on 128-bit SSE - SWPS3 is an SSE2-era tool; keeping it on the
  // narrow ISA mirrors the paper's actual comparison) ------------------
  const Platform cpu = platforms().front();
  const simd::IsaKind swps3_isa = simd::isa_available(simd::IsaKind::Sse41)
                                      ? simd::IsaKind::Sse41
                                      : cpu.isa;
  std::printf("--- %s panel: AAlign(short, hybrid, %s) vs SWPS3-like "
              "(char->short, iterate, %s) ---\n",
              cpu.label, simd::isa_name(cpu.isa), simd::isa_name(swps3_isa));
  std::printf("%-7s %12s %12s %10s %10s %9s\n", "query", "aalign(s)",
              "swps3(s)", "aal-GCUPS", "sw-GCUPS", "speedup");
  for (const seq::Sequence& q : queries) {
    const auto qenc = matrix.alphabet().encode(q.residues);

    search::SearchOptions aopt;
    aopt.threads = 4;
    aopt.query.strategy = Strategy::Hybrid;
    aopt.query.isa = cpu.isa;
    aopt.query.width = ScoreWidth::W16;
    aopt.keep_all_scores = false;
    search::DatabaseSearch aalign_search(matrix, cfg, aopt);
    const auto ra = aalign_search.search(qenc, db);

    const search::DatabaseSearch swps3(matrix, cfg, swps3_options(swps3_isa));
    const auto rs = swps3.search(qenc, db);

    std::printf("%-7s %12.3f %12.3f %10.2f %10.2f %8.2fx\n", q.id.c_str(),
                ra.seconds, rs.seconds, ra.gcups, rs.gcups,
                rs.seconds / ra.seconds);

    obs::Json row = obs::Json::object();
    row.set("query", q.id);
    row.set("aalign_seconds", ra.seconds);
    row.set("tool_seconds", rs.seconds);
    row.set("aalign_gcups", ra.gcups);
    row.set("tool_gcups", rs.gcups);
    row.set("speedup", rs.seconds / ra.seconds);
    report.add_row("cpu_vs_swps3", std::move(row));
    speedup_sum += rs.seconds / ra.seconds;
    ++speedup_n;
  }

  // --- MIC panel: AAlign (32-bit hybrid) vs SWAPHI (32-bit iterate) -----
  const Platform mic = platforms().back();
  std::printf("\n--- %s panel: AAlign(int, hybrid) vs SWAPHI-like "
              "(int, iterate) ---\n", mic.label);
  std::printf("%-7s %12s %12s %10s %10s %9s\n", "query", "aalign(s)",
              "swaphi(s)", "aal-GCUPS", "sw-GCUPS", "speedup");
  for (const seq::Sequence& q : queries) {
    const auto qenc = matrix.alphabet().encode(q.residues);

    search::SearchOptions aopt;
    aopt.threads = 4;
    aopt.query.strategy = Strategy::Hybrid;
    aopt.query.isa = mic.isa;
    aopt.query.width = ScoreWidth::W32;
    aopt.keep_all_scores = false;
    search::DatabaseSearch aalign_search(matrix, cfg, aopt);
    const auto ra = aalign_search.search(qenc, db);

    const search::DatabaseSearch swaphi(matrix, cfg, swaphi_options(mic.isa));
    const auto rw = swaphi.search(qenc, db);

    std::printf("%-7s %12.3f %12.3f %10.2f %10.2f %8.2fx\n", q.id.c_str(),
                ra.seconds, rw.seconds, ra.gcups, rw.gcups,
                rw.seconds / ra.seconds);

    obs::Json row = obs::Json::object();
    row.set("query", q.id);
    row.set("aalign_seconds", ra.seconds);
    row.set("tool_seconds", rw.seconds);
    row.set("aalign_gcups", ra.gcups);
    row.set("tool_gcups", rw.gcups);
    row.set("speedup", rw.seconds / ra.seconds);
    report.add_row("mic_vs_swaphi", std::move(row));
    speedup_sum += rw.seconds / ra.seconds;
    ++speedup_n;
  }

  std::printf(
      "\npaper shape: CPU panel - AAlign ahead on short queries, SWPS3-like "
      "closes (and can win) on the longest query thanks to 8-bit buffers; "
      "MIC panel - AAlign's hybrid beats the iterate-only 32-bit tool.\n");
  report.set_headline("mean_speedup_vs_tools",
                      speedup_n > 0 ? speedup_sum / speedup_n : 0.0);
  return report.write("BENCH_fig11_database_tools.json") ? 0 : 1;
}
