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
