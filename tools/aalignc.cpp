// aalignc: the AAlign code-translation driver (paper Fig. 3).
//
// Reads a sequential pairwise-alignment kernel written in the generalized
// paradigm (Sec. IV), verifies it against the paradigm rules (Sec. V-D,
// diagnostic codes AA0xx catalogued in docs/codegen.md), and emits a C++
// translation unit that instantiates the vectorized kernels.
//
// Usage:
//   aalignc INPUT.c [-o OUTPUT.h] [--summary] [--verify-only]
//           [--diag-format=human|json] [--namespace NS] [--func F]
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "codegen/emit.h"
#include "codegen/sema.h"

namespace {

int usage() {
  std::cerr
      << "usage: aalignc INPUT.c [-o OUTPUT.h] [--summary] [--expand]"
         " [--verify-only]\n"
         "               [--diag-format=human|json] [--namespace NS]"
         " [--func F]\n"
         "  Translates a sequential paradigm kernel into a vectorized AAlign"
         " kernel.\n"
         "  --expand emits fully expanded vector code constructs (Alg. 2/3)\n"
         "  instead of a kernel-template instantiation.\n"
         "  --verify-only runs the paradigm checks and reports every\n"
         "  diagnostic without emitting code (exit 0 when error-free).\n"
         "  --diag-format=json prints the diagnostics as a versioned JSON\n"
         "  document (schema \"aalign.diagnostics\") on stdout.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, output;
  bool summary_only = false;
  bool expand = false;
  bool verify_only = false;
  bool diag_json = false;
  aalign::codegen::EmitOptions emit_opt;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "--expand") {
      expand = true;
    } else if (arg == "--verify-only") {
      verify_only = true;
    } else if (arg == "--diag-format=human") {
      diag_json = false;
    } else if (arg == "--diag-format=json") {
      diag_json = true;
    } else if (arg == "--namespace" && i + 1 < argc) {
      emit_opt.nspace = argv[++i];
    } else if (arg == "--func" && i + 1 < argc) {
      emit_opt.function = argv[++i];
    } else if (arg == "-h" || arg == "--help") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "aalignc: unknown option " << arg << "\n";
      return usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();

  std::ifstream in(input);
  if (!in) {
    std::cerr << "aalignc: cannot open " << input << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string source = buf.str();

  aalign::codegen::DiagnosticEngine diags;
  const aalign::codegen::Program program =
      aalign::codegen::parse(source, diags);
  aalign::codegen::KernelSpec spec;
  if (!diags.has_errors()) {
    spec = aalign::codegen::verify(program, diags);
  }

  if (diag_json) {
    std::cout << diags.to_json(input).dump(2) << "\n";
  } else if (!diags.diagnostics().empty()) {
    std::cerr << diags.render(source, input);
  }
  if (diags.has_errors()) return 1;
  if (verify_only) return 0;

  std::cerr << spec.summary();
  if (summary_only) return 0;

  const std::string code =
      expand ? aalign::codegen::emit_expanded_kernel(spec, emit_opt)
             : aalign::codegen::emit_cpp(spec, emit_opt);
  if (output.empty()) {
    std::cout << code;
  } else {
    std::ofstream out(output);
    if (!out) {
      std::cerr << "aalignc: cannot write " << output << "\n";
      return 1;
    }
    out << code;
    std::cerr << "wrote " << output << "\n";
  }
  return 0;
}
