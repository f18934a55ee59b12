// Accumulating diagnostic engine for the code-translation front end.
//
// The paper's Sec. V-D pass rejects out-of-paradigm kernels through Clang's
// diagnostics; this is the reproduction's equivalent: every lexer / parser /
// semantic check reports into one DiagnosticEngine with a stable error code
// (AA0xx, catalogued in docs/codegen.md), a source span, and a severity, so
// a single `aalignc --verify-only` run surfaces every independent problem
// instead of stopping at the first. Output renders either as compiler-style
// human text (caret under the offending column) or as a versioned JSON
// document (`--diag-format=json`, schema "aalign.diagnostics" v1) built on
// the same obs::Json model the metrics exporter uses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace aalign::codegen {

enum class Severity : std::uint8_t { Note, Warning, Error };

const char* to_string(Severity s);

// Half-open character range on one source line. col is 1-based like the
// lexer's; len is the caret run length (0 -> no caret, span unknown).
struct SourceSpan {
  int line = 0;
  int col = 0;
  int len = 1;
};

struct Diagnostic {
  std::string code;  // stable "AA0xx" identifier
  Severity severity = Severity::Error;
  SourceSpan span;
  std::string message;
  std::string fixit;  // optional "rewrite as ..." note, empty when absent
};

// Collects diagnostics across all front-end phases of one run. Reporting
// never throws; callers decide at phase boundaries whether errors so far
// make continuing pointless.
class DiagnosticEngine {
 public:
  Diagnostic& add(Diagnostic d);
  Diagnostic& error(std::string code, SourceSpan span, std::string message);
  Diagnostic& warn(std::string code, SourceSpan span, std::string message);

  bool has_errors() const { return errors_ > 0; }
  int error_count() const { return errors_; }
  int warning_count() const { return warnings_; }
  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

  // Diagnostics ordered by (line, col, code) for deterministic output.
  std::vector<Diagnostic> sorted() const;

  // Compiler-style rendering: "file:line:col: error[AA0xx]: message", the
  // offending source line, and a caret column marker; fix-its render as
  // indented notes. `source` is the original text (for the quoted lines).
  std::string render(const std::string& source, const std::string& file) const;

  // Machine-readable document (schema "aalign.diagnostics", version 1):
  //   { schema, schema_version, file, errors, warnings,
  //     diagnostics: [ {code, severity, line, col, length, message, fixit?} ] }
  obs::Json to_json(const std::string& file) const;

 private:
  std::vector<Diagnostic> diags_;
  int errors_ = 0;
  int warnings_ = 0;
};

}  // namespace aalign::codegen
