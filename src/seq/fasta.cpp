#include "seq/fasta.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace aalign::seq {

namespace {

// std::isspace in the "C" locale (no code here changes the locale),
// inlined: ' ' and '\t' '\n' '\v' '\f' '\r'.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// One pass over the whole text: lines are split with find, and a residue
// line without embedded whitespace (the common case) is appended whole.
std::vector<Sequence> parse_fasta(std::string_view text) {
  std::vector<Sequence> out;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == '>') {
      out.push_back(Sequence{std::string(line.substr(1)), ""});
      continue;
    }
    if (line[0] == ';') continue;  // old-style comment lines
    if (out.empty()) {
      throw std::runtime_error("FASTA: sequence data before any '>' header");
    }
    std::string& residues = out.back().residues;
    if (std::none_of(line.begin(), line.end(), is_space)) {
      residues.append(line);
    } else {
      std::copy_if(line.begin(), line.end(), std::back_inserter(residues),
                   [](char c) { return !is_space(c); });
    }
  }
  return out;
}

}  // namespace

std::vector<Sequence> read_fasta(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse_fasta(std::move(text).str());
}

std::vector<Sequence> read_fasta_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("FASTA: cannot open " + path);
  // One sized read of what the file reports, then a stream for any rest:
  // a pipe reports no size, and a procfs file reports 0.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  std::ostringstream rest;
  rest << in.rdbuf();
  text += std::move(rest).str();
  return parse_fasta(text);
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 int wrap) {
  for (const Sequence& s : seqs) {
    out << '>' << s.id << '\n';
    if (wrap <= 0) {
      out << s.residues << '\n';
      continue;
    }
    for (std::size_t pos = 0; pos < s.residues.size();
         pos += static_cast<std::size_t>(wrap)) {
      out << s.residues.substr(pos, static_cast<std::size_t>(wrap)) << '\n';
    }
  }
}

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs, int wrap) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("FASTA: cannot open " + path);
  write_fasta(out, seqs, wrap);
}

}  // namespace aalign::seq
