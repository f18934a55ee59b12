// The accumulating diagnostic engine (paper Sec. V-D verification pass):
// multiple independent errors per run, stable AA0xx codes with source
// spans, golden-file fixtures under data/diagnostics/, JSON export shape,
// and the scan-eligibility downgrade reaching the emitters.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "codegen/emit.h"
#include "codegen/sema.h"
#include "obs/json.h"

using namespace aalign::codegen;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

#ifndef AALIGN_DATA_DIR
#define AALIGN_DATA_DIR "data"
#endif
std::string fixture_path(const std::string& name) {
  return std::string(AALIGN_DATA_DIR) + "/diagnostics/" + name;
}

// (code, severity, line, col) - the stable identity of a diagnostic.
using Key = std::tuple<std::string, std::string, int, int>;

std::multiset<Key> keys_of(const DiagnosticEngine& diags) {
  std::multiset<Key> out;
  for (const Diagnostic& d : diags.diagnostics()) {
    out.insert(Key{d.code, to_string(d.severity), d.span.line, d.span.col});
  }
  return out;
}

// Golden format: one "CODE severity line col" per line, '#' comments.
std::multiset<Key> load_golden(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden file " << path;
  std::multiset<Key> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    std::string code, severity;
    int ln = 0, col = 0;
    row >> code >> severity >> ln >> col;
    out.insert(Key{code, severity, ln, col});
  }
  return out;
}

DiagnosticEngine verify_fixture(const std::string& name, KernelSpec* spec_out =
                                                             nullptr) {
  DiagnosticEngine diags;
  const Program p = parse(read_file(fixture_path(name)), diags);
  KernelSpec spec;
  if (!diags.has_errors()) spec = verify(p, diags);
  if (spec_out != nullptr) *spec_out = spec;
  return diags;
}

TEST(Diagnostics, GoldenBadDependency) {
  const DiagnosticEngine diags = verify_fixture("bad_dependency.c");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_GE(diags.error_count(), 2) << "one run must surface every error";
  EXPECT_EQ(keys_of(diags), load_golden(fixture_path("bad_dependency.expected")));
}

TEST(Diagnostics, GoldenBadGapShape) {
  const DiagnosticEngine diags = verify_fixture("bad_gap_shape.c");
  EXPECT_TRUE(diags.has_errors());
  EXPECT_EQ(keys_of(diags), load_golden(fixture_path("bad_gap_shape.expected")));
}

TEST(Diagnostics, GoldenUnusedConstIsWarningOnly) {
  const DiagnosticEngine diags = verify_fixture("warn_unused_const.c");
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(diags.warning_count(), 1);
  EXPECT_EQ(keys_of(diags),
            load_golden(fixture_path("warn_unused_const.expected")));
}

TEST(Diagnostics, GoldenScanIneligibleIsWarningOnly) {
  KernelSpec spec;
  const DiagnosticEngine diags = verify_fixture("warn_scan_ineligible.c", &spec);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(keys_of(diags),
            load_golden(fixture_path("warn_scan_ineligible.expected")));
  EXPECT_FALSE(spec.scan_eligible);
}

TEST(Diagnostics, ScanIneligibleSpecPinsEmittersToIterate) {
  KernelSpec spec;
  verify_fixture("warn_scan_ineligible.c", &spec);
  ASSERT_FALSE(spec.scan_eligible);
  const std::string cpp = emit_cpp(spec);
  EXPECT_NE(cpp.find("aalign::Strategy::StripedIterate"), std::string::npos);
  EXPECT_EQ(cpp.find("aalign::Strategy::Hybrid"), std::string::npos);
  const std::string expanded = emit_expanded_kernel(spec);
  EXPECT_NE(expanded.find("return striped_iterate<Ops>(prof, subject);"),
            std::string::npos);
}

TEST(Diagnostics, ScanEligibleSpecKeepsHybridDefault) {
  DiagnosticEngine diags;
  const Program p = parse(
      read_file(std::string(AALIGN_DATA_DIR) + "/paradigm/sw_affine.c"), diags);
  const KernelSpec spec = verify(p, diags);
  EXPECT_FALSE(diags.has_errors());
  EXPECT_EQ(diags.warning_count(), 0);
  EXPECT_TRUE(spec.scan_eligible);
  EXPECT_NE(emit_cpp(spec).find("aalign::Strategy::Hybrid"),
            std::string::npos);
}

TEST(Diagnostics, LexerAccumulatesAndParserContinues) {
  // Two unknown characters: both must be reported in one run, and the
  // parser must still see the surviving tokens.
  DiagnosticEngine diags;
  const Program p = parse("const int A = @4;\nconst int B = $2;", diags);
  int aa001 = 0;
  for (const Diagnostic& d : diags.diagnostics()) {
    if (d.code == "AA001") ++aa001;
  }
  EXPECT_EQ(aa001, 2);
  // Report-and-skip: the digits after the bad characters still lex.
  EXPECT_EQ(p.consts.at("A"), 4);
  EXPECT_EQ(p.consts.at("B"), 2);
}

TEST(Diagnostics, OutOfRangeLiteralIsAA012) {
  // INT32_MAX lexes; one more, and a 20-digit literal that would wrap a
  // 64-bit accumulator, are AA012 errors at the literal, and the parse
  // goes on with the token clamped, so the later statements still count.
  DiagnosticEngine diags;
  const Program p = parse(
      "const int A = 2147483647;\n"
      "const int B = -2147483648;\n"
      "const int C = 99999999999999999999;\n"
      "const int D = 7;",
      diags);
  std::vector<std::tuple<int, int, int>> spans;  // line, col, length
  for (const Diagnostic& d : diags.diagnostics()) {
    EXPECT_EQ(d.code, "AA012") << d.message;
    EXPECT_EQ(d.severity, Severity::Error);
    spans.emplace_back(d.span.line, d.span.col, d.span.len);
  }
  EXPECT_EQ(spans, (std::vector<std::tuple<int, int, int>>{{2, 16, 10},
                                                          {3, 15, 20}}));
  EXPECT_EQ(p.consts.at("A"), 2147483647);
  EXPECT_EQ(p.consts.at("D"), 7);
  const std::string text = diags.render(
      "const int A = 2147483647;\nconst int B = -2147483648;\n"
      "const int C = 99999999999999999999;\nconst int D = 7;",
      "kernel.c");
  EXPECT_NE(text.find("kernel.c:3:15: error[AA012]: integer literal "
                      "99999999999999999999 is out of range (at most "
                      "2147483647)"),
            std::string::npos)
      << text;
}

TEST(Diagnostics, GapWeightOutsideIntIsAA027) {
  // Every literal is in range, but a gap arm's sum of them is not: it is
  // an AA027 error at the recurrence, or at an inline arm's cell, and not
  // AA023 (the weight is a penalty, just too large for the int fields).
  const std::string loops =
      "for (i = 1; i < n + 1; i++) {\n"
      "  for (j = 1; j < m + 1; j++) {\n";
  const std::string u_and_d =
      "    U[i][j] = max(U[i][j - 1] - 4, T[i][j - 1] - 4);\n"
      "    D[i][j] = T[i - 1][j - 1] + "
      "BLOSUM62[ctoi(S[i - 1])][ctoi(Q[j - 1])];\n";
  const std::string close = "  }\n}\n";
  const std::string recurrence =
      std::string(loops)
          .append("    L[i][j] = max(L[i - 1][j] - 2147483647 - 2147483647, "
                  "T[i - 1][j] - 2147483647 - 2147483647);\n")
          .append(u_and_d)
          .append("    T[i][j] = max(0, L[i][j], U[i][j], D[i][j]);\n")
          .append(close);
  const std::string inline_arm =
      std::string(loops)
          .append(u_and_d)
          .append("    T[i][j] = max(0, T[i - 1][j] - 2147483647 - "
                  "2147483647, U[i][j], D[i][j]);\n")
          .append(close);
  for (const auto& [source, line, col] :
       {std::tuple<std::string, int, int>{recurrence, 3, 5},
        std::tuple<std::string, int, int>{inline_arm, 5, 22}}) {
    DiagnosticEngine diags;
    const Program p = parse(source, diags);
    ASSERT_FALSE(diags.has_errors());
    verify(p, diags);
    const std::multiset<Key> keys = keys_of(diags);
    EXPECT_EQ(keys.count(Key{"AA027", "error", line, col}), 1u) << source;
    for (const Diagnostic& d : diags.diagnostics()) {
      EXPECT_NE(d.code, "AA023") << d.message;
    }
  }
}

TEST(Diagnostics, ParserRecoversAcrossStatements) {
  // Three independent parse errors; one run reports all of them.
  DiagnosticEngine diags;
  parse("const float A = 1;\n"
        "const int B = ;\n"
        "for (i = 0; j < n; i++) T[i][0] = 0;",
        diags);
  EXPECT_GE(diags.error_count(), 3);
  std::set<std::string> codes;
  for (const Diagnostic& d : diags.diagnostics()) codes.insert(d.code);
  EXPECT_TRUE(codes.count("AA003"));  // expected 'int' after 'const'
  EXPECT_TRUE(codes.count("AA005"));  // expected constant value
  EXPECT_TRUE(codes.count("AA006"));  // condition must test the loop var
}

TEST(Diagnostics, RenderShowsCaretAndSummary) {
  const std::string src = "const int A = @4;";
  DiagnosticEngine diags;
  parse(src, diags);
  const std::string text = diags.render(src, "kernel.c");
  EXPECT_NE(text.find("kernel.c:1:15: error[AA001]"), std::string::npos);
  EXPECT_NE(text.find("const int A = @4;"), std::string::npos);
  EXPECT_NE(text.find("              ^"), std::string::npos);
  EXPECT_NE(text.find("1 error(s), 0 warning(s) generated."),
            std::string::npos);
}

TEST(Diagnostics, FixitRendersAsNote) {
  const DiagnosticEngine diags = verify_fixture("bad_dependency.c");
  const std::string text =
      diags.render(read_file(fixture_path("bad_dependency.c")),
                   "bad_dependency.c");
  EXPECT_NE(text.find("note: every cell reference must be one of"),
            std::string::npos);
}

TEST(Diagnostics, JsonShapeRoundTripsThroughObsParser) {
  const DiagnosticEngine diags = verify_fixture("bad_dependency.c");
  const std::string dumped = diags.to_json("bad_dependency.c").dump(2);

  std::string err;
  const aalign::obs::Json doc = aalign::obs::Json::parse(dumped, &err);
  ASSERT_TRUE(err.empty()) << err;
  EXPECT_EQ(doc.find("schema")->as_string(), "aalign.diagnostics");
  EXPECT_EQ(doc.find("schema_version")->as_int(), 1);
  EXPECT_EQ(doc.find("file")->as_string(), "bad_dependency.c");
  EXPECT_EQ(doc.find("errors")->as_int(), diags.error_count());
  EXPECT_EQ(doc.find("warnings")->as_int(), 0);
  const aalign::obs::Json* list = doc.find("diagnostics");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(static_cast<int>(list->size()), diags.error_count());
  const std::vector<Diagnostic> sorted = diags.sorted();
  for (std::size_t i = 0; i < list->size(); ++i) {
    const aalign::obs::Json& row = list->at(i);
    EXPECT_EQ(row.find("code")->as_string(), sorted[i].code);
    EXPECT_EQ(row.find("severity")->as_string(), "error");
    EXPECT_EQ(row.find("line")->as_int(), sorted[i].span.line);
    EXPECT_EQ(row.find("col")->as_int(), sorted[i].span.col);
    EXPECT_NE(row.find("message"), nullptr);
  }
}

TEST(Diagnostics, ParadigmInputsVerifyClean) {
  for (const char* name :
       {"sw_affine.c", "sw_linear.c", "nw_affine.c", "nw_linear.c"}) {
    DiagnosticEngine diags;
    const Program p = parse(
        read_file(std::string(AALIGN_DATA_DIR) + "/paradigm/" + name), diags);
    verify(p, diags);
    EXPECT_FALSE(diags.has_errors()) << name;
    EXPECT_EQ(diags.warning_count(), 0) << name;
  }
}

}  // namespace
