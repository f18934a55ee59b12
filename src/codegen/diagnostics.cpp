#include "codegen/diagnostics.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace aalign::codegen {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

Diagnostic& DiagnosticEngine::add(Diagnostic d) {
  if (d.severity == Severity::Error) {
    ++errors_;
  } else if (d.severity == Severity::Warning) {
    ++warnings_;
  }
  diags_.push_back(std::move(d));
  return diags_.back();
}

Diagnostic& DiagnosticEngine::error(std::string code, SourceSpan span,
                                    std::string message) {
  return add(Diagnostic{std::move(code), Severity::Error, span,
                        std::move(message), {}});
}

Diagnostic& DiagnosticEngine::warn(std::string code, SourceSpan span,
                                   std::string message) {
  return add(Diagnostic{std::move(code), Severity::Warning, span,
                        std::move(message), {}});
}

std::vector<Diagnostic> DiagnosticEngine::sorted() const {
  std::vector<Diagnostic> out = diags_;
  std::stable_sort(out.begin(), out.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.span.line != b.span.line)
                       return a.span.line < b.span.line;
                     if (a.span.col != b.span.col) return a.span.col < b.span.col;
                     return a.code < b.code;
                   });
  return out;
}

namespace {

// 1-based source line, empty when out of range.
std::string source_line(const std::string& source, int line) {
  if (line <= 0) return {};
  std::size_t start = 0;
  for (int l = 1; l < line; ++l) {
    const std::size_t nl = source.find('\n', start);
    if (nl == std::string::npos) return {};
    start = nl + 1;
  }
  std::size_t end = source.find('\n', start);
  if (end == std::string::npos) end = source.size();
  return source.substr(start, end - start);
}

}  // namespace

std::string DiagnosticEngine::render(const std::string& source,
                                     const std::string& file) const {
  std::ostringstream os;
  for (const Diagnostic& d : sorted()) {
    os << file;
    if (d.span.line > 0) {
      os << ':' << d.span.line;
      if (d.span.col > 0) os << ':' << d.span.col;
    }
    os << ": " << to_string(d.severity) << '[' << d.code
       << "]: " << d.message << '\n';
    if (d.span.line > 0 && d.span.col > 0) {
      const std::string text = source_line(source, d.span.line);
      if (!text.empty() &&
          d.span.col <= static_cast<int>(text.size()) + 1) {
        os << "  " << text << '\n';
        os << "  " << std::string(static_cast<std::size_t>(d.span.col - 1), ' ')
           << std::string(static_cast<std::size_t>(std::max(d.span.len, 1)),
                          '^')
           << '\n';
      }
    }
    if (!d.fixit.empty()) {
      os << "  note: " << d.fixit << '\n';
    }
  }
  if (errors_ > 0 || warnings_ > 0) {
    os << errors_ << " error(s), " << warnings_ << " warning(s) generated.\n";
  }
  return os.str();
}

obs::Json DiagnosticEngine::to_json(const std::string& file) const {
  obs::Json doc = obs::Json::object();
  doc.set("schema", "aalign.diagnostics");
  doc.set("schema_version", 1);
  doc.set("file", file);
  doc.set("errors", errors_);
  doc.set("warnings", warnings_);
  obs::Json list = obs::Json::array();
  for (const Diagnostic& d : sorted()) {
    obs::Json row = obs::Json::object();
    row.set("code", d.code);
    row.set("severity", to_string(d.severity));
    row.set("line", d.span.line);
    row.set("col", d.span.col);
    row.set("length", d.span.len);
    row.set("message", d.message);
    if (!d.fixit.empty()) row.set("fixit", d.fixit);
    list.push_back(std::move(row));
  }
  doc.set("diagnostics", std::move(list));
  return doc;
}

}  // namespace aalign::codegen
