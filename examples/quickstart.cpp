// Quickstart: align two protein fragments with every combination of
// algorithm, gap system, and vectorization strategy, then show the actual
// alignment path for the local case.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "core/aligner.h"
#include "core/traceback.h"
#include "score/matrices.h"

using namespace aalign;

int main() {
  const score::ScoreMatrix& matrix = score::ScoreMatrix::blosum62();
  const score::Alphabet& alphabet = matrix.alphabet();

  // Two fragments of hemoglobin-like sequence with a diverged middle.
  const auto query = alphabet.encode(
      "MVLSPADKTNVKAAWGKVGAHAGEYGAEALERMFLSFPTTKTYFPHFDLSHGSAQVKGHGKKVADAL");
  const auto subject = alphabet.encode(
      "MVHLTPEEKSAVTALWGKVNVDEVGGEALGRLLVVYPWTQRFFESFGDLSTPDAVMGNPKVKAHGKKVLGAF");

  std::printf("AAlign quickstart: |Q| = %zu, |S| = %zu, matrix = %s\n\n",
              query.size(), subject.size(), matrix.name().c_str());
  std::printf("%-17s %-8s %-18s %8s %10s\n", "algorithm", "gaps", "strategy",
              "score", "lazy-steps");

  for (AlignKind kind :
       {AlignKind::Local, AlignKind::Global, AlignKind::SemiGlobal,
        AlignKind::SemiGlobalQuery, AlignKind::Overlap}) {
    for (bool affine : {true, false}) {
      AlignConfig cfg;
      cfg.kind = kind;
      cfg.pen = affine ? Penalties::symmetric(10, 2)
                       : Penalties::symmetric(0, 4);
      for (Strategy strat : {Strategy::StripedIterate, Strategy::StripedScan,
                             Strategy::Hybrid}) {
        core::QueryOptions opt;
        opt.strategy = strat;
        const AlignResult r = align_pair(matrix, cfg, query, subject, opt);
        std::printf("%-17s %-8s %-18s %8ld %10llu\n", to_string(kind),
                    affine ? "affine" : "linear", to_string(strat), r.score,
                    static_cast<unsigned long long>(r.stats.lazy_steps));
      }
    }
  }

  // Show the actual local alignment.
  AlignConfig cfg;
  cfg.kind = AlignKind::Local;
  cfg.pen = Penalties::symmetric(10, 2);
  const core::Alignment aln =
      core::align_traceback(matrix, cfg, query, subject);
  const core::AlignmentRows rows =
      core::render_alignment(alphabet, query, subject, aln);
  std::printf("\nLocal alignment (score %ld, CIGAR %s):\n  %s\n  %s\n  %s\n",
              aln.score, aln.cigar.c_str(), rows.query.c_str(),
              rows.midline.c_str(), rows.subject.c_str());
  return 0;
}
