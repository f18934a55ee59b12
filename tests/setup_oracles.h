// The set-up path's previous implementations, kept as reference oracles
// for the differential tests: the line-at-a-time FASTA parser and the
// stream-based file reader (seq/fasta), the per-byte alphabet encode
// (score::Alphabet::encode) and the cell-at-a-time query striping
// (score::stripe_query). The library versions must reproduce them byte for
// byte; the one intended difference is that the file reader now throws on
// a failed read, where this one returned what it had.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "score/alphabet.h"
#include "score/profile.h"
#include "seq/sequence.h"
#include "util/aligned_buffer.h"

namespace aalign::test {

inline bool oracle_is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline std::vector<seq::Sequence> parse_fasta_oracle(std::string_view text) {
  std::vector<seq::Sequence> out;
  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    std::string_view line = text.substr(0, nl);
    text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line[0] == '>') {
      out.push_back(seq::Sequence{std::string(line.substr(1)), ""});
      continue;
    }
    if (line[0] == ';') continue;
    if (out.empty()) {
      throw std::runtime_error("FASTA: sequence data before any '>' header");
    }
    std::string& residues = out.back().residues;
    if (std::none_of(line.begin(), line.end(), oracle_is_space)) {
      residues.append(line);
    } else {
      std::copy_if(line.begin(), line.end(), std::back_inserter(residues),
                   [](char c) { return !oracle_is_space(c); });
    }
  }
  return out;
}

inline std::vector<seq::Sequence> read_fasta_file_oracle(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("FASTA: cannot open " + path);
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  std::string text(ec ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  std::ostringstream rest;
  rest << in.rdbuf();
  text += std::move(rest).str();
  return parse_fasta_oracle(text);
}

inline std::vector<std::uint8_t> encode_oracle(const score::Alphabet& a,
                                               std::string_view residues) {
  std::vector<std::uint8_t> out(residues.size());
  std::transform(residues.begin(), residues.end(), out.begin(),
                 [&a](char c) { return a.ctoi(c); });
  return out;
}

template <class T>
void stripe_query_oracle(score::StripedProfile<T>& p,
                         std::span<const std::uint8_t> query, int alpha,
                         int width, util::AlignedBuffer<T>& idx,
                         score::IndexCode code = {}) {
  if (query.empty()) throw std::invalid_argument("profile: empty query");
  if (width <= 0) throw std::invalid_argument("profile: bad vector width");

  p.m = static_cast<int>(query.size());
  p.width = width;
  p.segs = (p.m + width - 1) / width;
  p.alpha = alpha;

  idx.resize(static_cast<std::size_t>(p.segs) * width);
  for (int l = 0; l < width; ++l) {
    for (int j = 0; j < p.segs; ++j) {
      const int logical = l * p.segs + j;
      int c = alpha;
      if (logical < p.m) {
        c = query[logical];
        if (c >= alpha) {
          throw std::invalid_argument("profile: query symbol " +
                                      std::to_string(c) +
                                      " outside the alphabet");
        }
      }
      idx[static_cast<std::size_t>(j) * width + l] =
          static_cast<T>(c * code.mul + code.add);
    }
  }
}

}  // namespace aalign::test
