// Sequence types shared by the I/O, generator, and search layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "score/alphabet.h"

namespace aalign::seq {

// A named sequence of raw residue characters (as read from FASTA).
struct Sequence {
  std::string id;
  std::string residues;

  std::size_t size() const { return residues.size(); }
};

// A named sequence encoded to alphabet indices that owns its residues:
// what encode() returns and what a Database can be built from.
struct EncodedSequence {
  std::string id;
  std::vector<std::uint8_t> data;

  std::size_t size() const { return data.size(); }
};

EncodedSequence encode(const score::Alphabet& alphabet, const Sequence& s);

// One database entry as Database::operator[] hands it out: a copied id
// plus a view of encoded residues. The record never owns its residues -
// the Database it came from keeps them alive (Database::backing()). Hot
// loops read Database::residues(pos) instead, which copies nothing.
struct Record {
  std::string id;
  std::span<const std::uint8_t> residues;

  std::size_t size() const { return residues.size(); }
  std::span<const std::uint8_t> view() const { return residues; }
};

}  // namespace aalign::seq
