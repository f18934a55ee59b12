// Code-translation front end: lexer/parser shape, Table II extraction on
// the four paradigm variants, paradigm-violation diagnostics, and the
// emitted C++'s configuration agreeing with hand-written configs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "codegen/emit.h"
#include "codegen/sema.h"
#include "core/aligner.h"
#include "core/sequential.h"
#include "test_helpers.h"

using namespace aalign;
using namespace aalign::codegen;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Test data lives relative to the source tree; CMake passes the dir.
#ifndef AALIGN_DATA_DIR
#define AALIGN_DATA_DIR "data"
#endif
std::string data_path(const std::string& name) {
  return std::string(AALIGN_DATA_DIR) + "/paradigm/" + name;
}

// The front end as aalignc drives it: parse, then verify a clean parse,
// all reporting into one engine.
KernelSpec run_front_end(const std::string& source, DiagnosticEngine& diags) {
  const Program program = parse(source, diags);
  return diags.has_errors() ? KernelSpec{} : verify(program, diags);
}

// The spec of a source that must pass the front end without errors.
KernelSpec verified_spec(const std::string& source) {
  DiagnosticEngine diags;
  const KernelSpec spec = run_front_end(source, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.render(source, "<source>");
  return spec;
}

// Code of the location-first error of a run, empty when error-free.
std::string first_error_code(const DiagnosticEngine& diags) {
  for (const Diagnostic& d : diags.sorted()) {
    if (d.severity == Severity::Error) return d.code;
  }
  return {};
}

TEST(Lexer, TokenizesOperatorsAndComments) {
  DiagnosticEngine diags;
  const auto toks =
      lex("for (i = 0; i < n + 1; i++) /* x */ T[i][0] = -3;", diags);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(toks.front().text, "for");
  bool saw_plusplus = false, saw_minus = false;
  for (const auto& t : toks) {
    if (t.kind == Tok::PlusPlus) saw_plusplus = true;
    if (t.kind == Tok::Minus) saw_minus = true;
  }
  EXPECT_TRUE(saw_plusplus);
  EXPECT_TRUE(saw_minus);
  EXPECT_EQ(toks.back().kind, Tok::End);
}

TEST(Lexer, RejectsUnknownCharacters) {
  DiagnosticEngine diags;
  lex("T[i][j] = a ? b : c;", diags);
  ASSERT_TRUE(diags.has_errors());
  EXPECT_EQ(first_error_code(diags), "AA001");
}

TEST(Parser, ChainedAssignmentTargets) {
  DiagnosticEngine diags;
  const Program p = parse("for (i = 0; i < n + 1; i++) { "
                          "T[i][0] = U[i][0] = L[i][0] = 0; }",
                          diags);
  EXPECT_FALSE(diags.has_errors());
  ASSERT_EQ(p.loops.size(), 1u);
  ASSERT_EQ(p.loops[0].assigns.size(), 1u);
  EXPECT_EQ(p.loops[0].assigns[0].targets.size(), 3u);
  EXPECT_EQ(p.loops[0].assigns[0].value.kind, Expr::Kind::Number);
}

TEST(Parser, ConstFolding) {
  DiagnosticEngine diags;
  const Program p = parse("const int A = -4; const int B = A;", diags);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(p.consts.at("A"), -4);
  EXPECT_EQ(p.consts.at("B"), -4);
}

TEST(Analyze, SwAffine) {
  const KernelSpec spec = verified_spec(read_file(data_path("sw_affine.c")));
  EXPECT_EQ(spec.kind, AlignKind::Local);
  EXPECT_EQ(spec.gap, GapModel::Affine);
  EXPECT_EQ(spec.open_query, 10);
  EXPECT_EQ(spec.ext_query, 2);
  EXPECT_EQ(spec.open_subject, 10);
  EXPECT_EQ(spec.ext_subject, 2);
  EXPECT_EQ(spec.matrix, "BLOSUM62");
  EXPECT_EQ(spec.table, "T");
  EXPECT_EQ(spec.query_seq, "Q");
  EXPECT_EQ(spec.subject_seq, "S");
}

TEST(Analyze, NwAffine) {
  const KernelSpec spec = verified_spec(read_file(data_path("nw_affine.c")));
  EXPECT_EQ(spec.kind, AlignKind::Global);
  EXPECT_EQ(spec.gap, GapModel::Affine);
  EXPECT_EQ(spec.open_query, 10);
  EXPECT_EQ(spec.ext_query, 2);
}

TEST(Analyze, SwLinear) {
  const KernelSpec spec = verified_spec(read_file(data_path("sw_linear.c")));
  EXPECT_EQ(spec.kind, AlignKind::Local);
  EXPECT_EQ(spec.gap, GapModel::Linear);
  EXPECT_EQ(spec.open_query, 0);
  EXPECT_EQ(spec.ext_query, 4);
}

TEST(Analyze, NwLinearInlineForm) {
  const KernelSpec spec = verified_spec(read_file(data_path("nw_linear.c")));
  EXPECT_EQ(spec.kind, AlignKind::Global);
  EXPECT_EQ(spec.gap, GapModel::Linear);
  EXPECT_EQ(spec.ext_query, 4);
  EXPECT_EQ(spec.ext_subject, 4);
}

TEST(Analyze, RejectsMissingDiagonal) {
  const char* src = R"(
    const int G = -2;
    for (i = 1; i < n + 1; i++)
      for (j = 1; j < m + 1; j++)
        T[i][j] = max(T[i-1][j] + G, T[i][j-1] + G);
  )";
  DiagnosticEngine diags;
  run_front_end(src, diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(first_error_code(diags), "AA021");
}

TEST(Analyze, RejectsPositiveGapConstants) {
  const char* src = R"(
    const int GAP_OPEN = 12;
    const int GAP_EXT = 2;
    for (i = 1; i < n + 1; i++)
      for (j = 1; j < m + 1; j++) {
        L[i][j] = max(L[i-1][j] + GAP_EXT, T[i-1][j] + GAP_OPEN);
        U[i][j] = max(U[i][j-1] + GAP_EXT, T[i][j-1] + GAP_OPEN);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);
      }
  )";
  DiagnosticEngine diags;
  run_front_end(src, diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(first_error_code(diags), "AA025");
}

TEST(Analyze, RejectsFlatLoop) {
  DiagnosticEngine diags;
  run_front_end("for (i = 0; i < n; i++) T[i][0] = 0;", diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(first_error_code(diags), "AA020");
}

TEST(Analyze, WarnsOnInitMismatch) {
  // Global recurrences (no 0 in max) but zero boundary init.
  const char* src = R"(
    const int GO = -12;
    const int GE = -2;
    for (i = 0; i < n + 1; i++) T[i][0] = 0;
    for (i = 1; i < n + 1; i++)
      for (j = 1; j < m + 1; j++) {
        L[i][j] = max(L[i-1][j] + GE, T[i-1][j] + GO);
        U[i][j] = max(U[i][j-1] + GE, T[i][j-1] + GO);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(L[i][j], U[i][j], D[i][j]);
      }
  )";
  const KernelSpec spec = verified_spec(src);
  EXPECT_EQ(spec.kind, AlignKind::Global);
  EXPECT_FALSE(spec.warnings.empty());
}

TEST(Sema, SummaryReportsTableTwoFields) {
  const std::string summary =
      verified_spec(read_file(data_path("sw_affine.c"))).summary();
  EXPECT_NE(summary.find("local (Smith-Waterman family)"), std::string::npos);
  EXPECT_NE(summary.find("gap system     : affine"), std::string::npos);
  EXPECT_NE(summary.find("query gaps     : open 10, extend 2"),
            std::string::npos);
  EXPECT_NE(summary.find("subject gaps   : open 10, extend 2"),
            std::string::npos);
  EXPECT_NE(summary.find("matrix         : BLOSUM62"), std::string::npos);
  EXPECT_NE(summary.find("scan eligible  : yes"), std::string::npos);
}

TEST(Sema, SummaryFlagsScanIneligible) {
  const KernelSpec spec = verified_spec(read_file(
      std::string(AALIGN_DATA_DIR) + "/diagnostics/warn_scan_ineligible.c"));
  EXPECT_FALSE(spec.scan_eligible);
  EXPECT_NE(spec.summary().find("scan eligible  : no (striped-iterate only)"),
            std::string::npos);
}

TEST(Sema, ToConfigKeepsPerAxisGaps) {
  // U (inner loop, query axis) opens at 12 / extends at 2; L (outer loop,
  // subject axis) at 8 / 3. Source constants are additive: -(open+ext).
  const char* src = R"(
    const int QO = -14;
    const int QE = -2;
    const int SO = -11;
    const int SE = -3;
    for (i = 1; i < n + 1; i++)
      for (j = 1; j < m + 1; j++) {
        L[i][j] = max(L[i-1][j] + SE, T[i-1][j] + SO);
        U[i][j] = max(U[i][j-1] + QE, T[i][j-1] + QO);
        D[i][j] = T[i-1][j-1] + BLOSUM62[ctoi(S[i-1])][ctoi(Q[j-1])];
        T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);
      }
  )";
  const AlignConfig cfg = verified_spec(src).to_config();
  EXPECT_EQ(cfg.kind, AlignKind::Local);
  EXPECT_EQ(cfg.pen.query.open, 12);
  EXPECT_EQ(cfg.pen.query.extend, 2);
  EXPECT_EQ(cfg.pen.subject.open, 8);
  EXPECT_EQ(cfg.pen.subject.extend, 3);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Emit, GeneratedSourceContainsConfig) {
  const KernelSpec spec = verified_spec(read_file(data_path("sw_affine.c")));
  const std::string cpp = emit_cpp(spec);
  EXPECT_NE(cpp.find("AlignKind::Local"), std::string::npos);
  EXPECT_NE(cpp.find("GapScheme{10, 2}"), std::string::npos);
  EXPECT_NE(cpp.find("blosum62"), std::string::npos);
  EXPECT_NE(cpp.find("namespace aalign_generated"), std::string::npos);
}

TEST(Emit, SpecConfigMatchesHandWritten) {
  // End-to-end: the config extracted from the paradigm source must drive
  // the kernels to the same score as a hand-constructed config.
  const KernelSpec spec = verified_spec(read_file(data_path("nw_affine.c")));
  const AlignConfig from_codegen = spec.to_config();

  AlignConfig by_hand;
  by_hand.kind = AlignKind::Global;
  by_hand.pen = Penalties::symmetric(10, 2);

  std::mt19937_64 rng(3);
  const auto& m = score::ScoreMatrix::blosum62();
  for (int iter = 0; iter < 5; ++iter) {
    const auto q = test::random_protein(rng, 60);
    const auto s = test::mutate(rng, q, 0.3, 0.05);
    EXPECT_EQ(align_pair(m, from_codegen, q, s).score,
              core::align_sequential(m, by_hand, q, s));
  }
}

}  // namespace
