// Sequence types shared by the I/O, generator, and search layers.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace aalign::seq {

// A named sequence of raw residue characters (as read from FASTA).
struct Sequence {
  std::string id;
  std::string residues;

  std::size_t size() const { return residues.size(); }
};

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
