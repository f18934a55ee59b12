// Residue alphabets and the character<->index mapping (the paper's `ctoi`).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aalign::score {

enum class AlphabetKind : std::uint8_t { Protein, Dna };

// Maps residue characters to dense indices used by the substitution
// matrices and query profiles. Unknown characters map to the alphabet's
// wildcard index ('X' for protein, 'N' for DNA) rather than failing, which
// matches how database-search tools treat dirty FASTA input.
class Alphabet {
 public:
  static const Alphabet& protein();
  static const Alphabet& dna();

  // A custom alphabet: `letters` in index order (matched case-blind),
  // every other character mapping to index `wildcard`. Profiles take at
  // most 255 letters.
  Alphabet(AlphabetKind kind, std::string letters, int wildcard);

  AlphabetKind kind() const { return kind_; }
  int size() const { return static_cast<int>(letters_.size()); }
  int wildcard() const { return wildcard_; }

  std::uint8_t ctoi(char c) const {
    return ctoi_[static_cast<unsigned char>(c)];
  }
  char itoc(std::uint8_t i) const { return letters_[i]; }

  // ctoi over every byte of `residues`, into out[0, residues.size()). The
  // translation runs through the 256-entry ctoi table 64 bytes at a time
  // where the CPU has AVX-512 VBMI (simd/primitives.h), else one byte at a
  // time; the bytes are the same.
  void encode(std::string_view residues, std::uint8_t* out) const;
  std::vector<std::uint8_t> encode(std::string_view residues) const;

 private:
  AlphabetKind kind_;
  std::string letters_;
  int wildcard_;
  std::array<std::uint8_t, 256> ctoi_{};
};

}  // namespace aalign::score
