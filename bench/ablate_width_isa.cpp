// Ablation of the two scaling axes the framework exposes: vector width
// (ISA: 8 -> 16 lanes of int32; 128 -> 256 bit for int16/int8) and score
// width (int8/int16/int32 - narrower lanes double throughput per vector,
// the effect SWPS3 exploits in Fig. 11). Also isolates the striped
// layout's benefit by comparing against the 8-lane emulated-scalar
// backend, which runs the identical striped algorithm without SIMD
// hardware.
#include <cstdio>

#include "baselines/sequential_opt.h"
#include "baselines/wavefront.h"
#include "bench_common.h"
#include "seq/pairgen.h"

using namespace aalign;
using namespace aalign::bench;

int main() {
  const auto& matrix = score::ScoreMatrix::blosum62();
  seq::SequenceGenerator gen(99);

  const std::size_t qlen = scaled(2000);
  const auto query = matrix.alphabet().encode(gen.protein(qlen).residues);
  const auto subject = matrix.alphabet().encode(gen.protein(qlen).residues);

  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  std::printf("Width/ISA/layout ablation: SW-affine, %zu x %zu cells\n\n",
              query.size(), subject.size());

  const double cells =
      static_cast<double>(query.size()) * static_cast<double>(subject.size());

  BenchReport report("ablate_width_isa");
  report.set_workload("query_len", query.size());
  report.set_workload("subject_len", subject.size());
  double best_gcups = 0.0;

  // Layout baselines: plain sequential and the auto-vectorizable
  // anti-diagonal (wavefront) formulation - what you get WITHOUT the
  // striped layout and manual vector modules.
  {
    const double t_seq = time_median(
        [&] { baselines::align_sequential_opt(matrix, cfg, query, subject); },
        3);
    const double t_wf = time_median(
        [&] { baselines::align_wavefront(matrix, cfg, query, subject); }, 3);
    std::printf("layout baselines:\n");
    std::printf("  %-28s %12.3f ms %10.2f GCUPS\n", "sequential (opt)",
                t_seq * 1e3, cells / t_seq / 1e9);
    std::printf("  %-28s %12.3f ms %10.2f GCUPS\n",
                "wavefront (auto-vec)", t_wf * 1e3, cells / t_wf / 1e9);

    obs::Json row = obs::Json::object();
    row.set("baseline", "sequential_opt");
    row.set("seconds", t_seq);
    row.set("gcups", cells / t_seq / 1e9);
    report.add_row("baselines", std::move(row));
    obs::Json row_wf = obs::Json::object();
    row_wf.set("baseline", "wavefront");
    row_wf.set("seconds", t_wf);
    row_wf.set("gcups", cells / t_wf / 1e9);
    report.add_row("baselines", std::move(row_wf));
  }

  std::printf("\nstriped kernels:\n");
  std::printf("%-8s %-6s %6s %12s %12s %10s\n", "isa", "width", "lanes",
              "iter(ms)", "scan(ms)", "GCUPS(it)");

  for (simd::IsaKind isa :
       {simd::IsaKind::Scalar, simd::IsaKind::Sse41, simd::IsaKind::Avx2,
        simd::IsaKind::Avx512, simd::IsaKind::Avx512Bw}) {
    if (!simd::isa_available(isa)) continue;
    for (ScoreWidth width :
         {ScoreWidth::W8, ScoreWidth::W16, ScoreWidth::W32}) {
      int lanes = 0;
      if (width == ScoreWidth::W8) {
        const auto* e = core::get_engine<std::int8_t>(isa);
        if (e == nullptr) continue;
        lanes = e->lanes();
      } else if (width == ScoreWidth::W16) {
        const auto* e = core::get_engine<std::int16_t>(isa);
        if (e == nullptr) continue;
        lanes = e->lanes();
      } else {
        const auto* e = core::get_engine<std::int32_t>(isa);
        if (e == nullptr) continue;
        lanes = e->lanes();
      }
      // int8 cannot hold scores of a 2000x2000 similar pair; dissimilar
      // random pairs stay in range except W8 vs long queries, where we
      // accept the saturated flag (the timing is still representative).
      core::QueryOptions opt;
      opt.isa = isa;
      opt.width = width;

      opt.strategy = Strategy::StripedIterate;
      PairAligner it(matrix, cfg, opt);
      it.set_query(query);
      const double t_it = time_median([&] { it.align(subject); }, 3);

      opt.strategy = Strategy::StripedScan;
      PairAligner sc(matrix, cfg, opt);
      sc.set_query(query);
      const double t_sc = time_median([&] { sc.align(subject); }, 3);

      std::printf("%-8s %-6s %6d %12.3f %12.3f %10.2f\n", simd::isa_name(isa),
                  to_string(width), lanes, t_it * 1e3, t_sc * 1e3,
                  cells / t_it / 1e9);

      obs::Json row = obs::Json::object();
      row.set("isa", simd::isa_name(isa));
      row.set("width", to_string(width));
      row.set("lanes", lanes);
      row.set("iterate_seconds", t_it);
      row.set("scan_seconds", t_sc);
      row.set("gcups", cells / t_it / 1e9);
      report.add_row("kernels", std::move(row));
      best_gcups = std::max(best_gcups, cells / t_it / 1e9);
    }
  }
  std::printf(
      "\nexpected shape: throughput grows with lane count (narrower type "
      "and/or wider ISA); the hardware backends beat the emulated-scalar "
      "backend at equal algorithm and layout.\n");
  report.set_headline("best_striped_gcups", best_gcups);
  return report.write("BENCH_ablate_width_isa.json") ? 0 : 1;
}
