#include "score/alphabet.h"

#include <cctype>
#include <utility>

#include "simd/isa.h"
#include "simd/primitives.h"

namespace aalign::score {

Alphabet::Alphabet(AlphabetKind kind, std::string letters, int wildcard)
    : kind_(kind), letters_(std::move(letters)), wildcard_(wildcard) {
  ctoi_.fill(static_cast<std::uint8_t>(wildcard_));
  for (std::size_t i = 0; i < letters_.size(); ++i) {
    const char c = letters_[i];
    ctoi_[static_cast<unsigned char>(std::toupper(c))] =
        static_cast<std::uint8_t>(i);
    ctoi_[static_cast<unsigned char>(std::tolower(c))] =
        static_cast<std::uint8_t>(i);
  }
}

const Alphabet& Alphabet::protein() {
  // NCBI BLOSUM ordering; B/Z/X are ambiguity codes, '*' is a stop codon.
  static const Alphabet a(AlphabetKind::Protein, "ARNDCQEGHILKMFPSTWYVBZX*",
                          /*wildcard=*/22);
  return a;
}

const Alphabet& Alphabet::dna() {
  static const Alphabet a(AlphabetKind::Dna, "ACGTN", /*wildcard=*/4);
  return a;
}

void Alphabet::encode(std::string_view residues, std::uint8_t* out) const {
  simd::primitives().translate(ctoi_.data(), residues.data(), out,
                               residues.size());
}

std::vector<std::uint8_t> Alphabet::encode(std::string_view residues) const {
  std::vector<std::uint8_t> out(residues.size());
  encode(residues, out.data());
  return out;
}

}  // namespace aalign::score
