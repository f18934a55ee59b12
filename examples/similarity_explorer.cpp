// Similarity explorer: generates subject sequences at each of the paper's
// nine QC_MI similarity bands (Fig. 10's x-axis), verifies the realized
// coverage/identity with a real traceback, and shows how the similarity
// level drives the vectorization strategies' behaviour - the lazy-F
// re-computation counter rises with similarity, which is exactly the
// signal the hybrid method thresholds.
//
//   $ ./build/examples/similarity_explorer [query_len]
#include <cstdio>
#include <cstdlib>

#include "core/aligner.h"
#include "core/stats.h"
#include "seq/generator.h"
#include "seq/pairgen.h"

using namespace aalign;

int main(int argc, char** argv) {
  const std::size_t qlen =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 2000;

  const auto& matrix = score::ScoreMatrix::blosum62();
  const auto& alphabet = matrix.alphabet();
  seq::SequenceGenerator gen(2024);

  const seq::Sequence query = gen.protein(qlen, "Q");
  const auto qenc = alphabet.encode(query.residues);

  AlignConfig cfg;  // SW-affine, the paper's calibration config
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);

  std::printf("query length %zu, SW-affine, ISA %s\n\n", qlen,
              simd::isa_name(simd::best_available_isa()));
  std::printf("%-7s | %6s %6s | %8s %12s %10s | %s\n", "band", "QC", "MI",
              "score", "lazy-steps", "passes/col", "hybrid switches");

  for (seq::Level qc : {seq::Level::Hi, seq::Level::Md, seq::Level::Lo}) {
    for (seq::Level mi : {seq::Level::Hi, seq::Level::Md, seq::Level::Lo}) {
      const seq::SimilaritySpec spec{qc, mi};
      const seq::Sequence subj = seq::make_similar_subject(gen, query, spec);
      const auto senc = alphabet.encode(subj.residues);

      const core::SimilarityStats st =
          core::measure_similarity(matrix, qenc, senc);

      core::QueryOptions iter_opt;
      iter_opt.strategy = Strategy::StripedIterate;
      const AlignResult it = align_pair(matrix, cfg, qenc, senc, iter_opt);

      core::QueryOptions hyb_opt;
      hyb_opt.strategy = Strategy::Hybrid;
      const AlignResult hy = align_pair(matrix, cfg, qenc, senc, hyb_opt);

      const auto* engine = core::get_engine<std::int32_t>(hy.isa);
      const double segs = static_cast<double>(
          (qenc.size() + engine->lanes() - 1) / engine->lanes());
      const double passes =
          static_cast<double>(it.stats.lazy_steps) /
          (segs * static_cast<double>(it.stats.columns));

      std::printf("%-7s | %5.0f%% %5.0f%% | %8ld %12llu %10.3f | %llu\n",
                  spec.label().c_str(), st.query_coverage * 100,
                  st.max_identity * 100, it.score,
                  static_cast<unsigned long long>(it.stats.lazy_steps),
                  passes,
                  static_cast<unsigned long long>(hy.stats.switches));
    }
  }
  std::printf(
      "\nreading: similar pairs (hi bands) force more lazy-F passes per "
      "column; the hybrid method switches to striped-scan exactly on those "
      "inputs.\n");
  return 0;
}
