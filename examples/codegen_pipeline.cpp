// The AAlign framework pipeline (paper Fig. 3) in one process:
//
//   sequential paradigm source --parse--> AST --analyze--> Table II spec
//   --emit--> vectorized C++ kernel source, and the same spec driven
//   directly through the kernel templates to align real sequences.
//
// Usage:
//   codegen_pipeline [paradigm.c]    (default: data/paradigm/sw_affine.c)
#include <cstdio>
#include <fstream>
#include <sstream>

#include "codegen/emit.h"
#include "codegen/sema.h"
#include "core/aligner.h"
#include "core/sequential.h"
#include "seq/generator.h"

using namespace aalign;

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : "data/paradigm/sw_affine.c";

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s (run from the repo root, or pass a "
                         "paradigm source)\n",
                 path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  // 1. Parse + verify (the paper's AST traversal, Table II extraction).
  //    The diagnostic engine accumulates every violation in one run
  //    instead of stopping at the first.
  codegen::DiagnosticEngine diags;
  const codegen::Program program = codegen::parse(buf.str(), diags);
  codegen::KernelSpec spec;
  if (!diags.has_errors()) spec = codegen::verify(program, diags);
  if (diags.has_errors()) {
    std::fputs(diags.render(buf.str(), path).c_str(), stderr);
    return 1;
  }
  std::printf("=== extracted configuration (%s) ===\n%s\n", path.c_str(),
              spec.summary().c_str());

  // 2. Emit the vectorized kernel source.
  const std::string code = codegen::emit_cpp(spec);
  std::printf("=== generated kernel (%zu bytes) ===\n", code.size());
  std::printf("%.600s\n...\n\n", code.c_str());

  // 3. Drive the same configuration through the kernels right here.
  seq::SequenceGenerator gen(1);
  const auto& matrix = score::ScoreMatrix::blosum62();
  const auto q = matrix.alphabet().encode(gen.protein(300).residues);
  const auto s = matrix.alphabet().encode(gen.protein(350).residues);

  const AlignConfig cfg = spec.to_config();
  std::printf("=== running the generated configuration ===\n");
  for (Strategy strat : {Strategy::StripedIterate, Strategy::StripedScan,
                         Strategy::Hybrid}) {
    core::QueryOptions opt;
    opt.strategy = strat;
    const AlignResult r = align_pair(matrix, cfg, q, s, opt);
    std::printf("  %-16s -> score %ld (%s, %s)\n", to_string(strat), r.score,
                simd::isa_name(r.isa), to_string(r.width));
  }
  std::printf("  %-16s -> score %ld\n", "sequential",
              core::align_sequential(matrix, cfg, q, s));
  return 0;
}
