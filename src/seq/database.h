// Encoded sequence database for multi-threaded search (paper Sec. V-E).
//
// A database is stored longest first: building sorts (stably, so equal
// lengths keep their input order) and records the permutation, and nothing
// re-orders a database afterwards. With a dynamic work queue that order
// gives near-perfect load balance - the paper's sort + dynamic binding,
// done once per database instead of once per search - and every search and
// store entry point takes the database by const&.
//
// One layout, the index file's own directory (docs/database_format.md): a
// DirEntry per sequence locating its residues and id from two base
// pointers, the u64 original-index permutation, and a shared u32 inverse.
// A store-served database (store::MappedIndex::database()) points straight
// at the mapped sections; a FASTA-built one owns the same arrays. Either
// way backing() keeps the storage alive, nothing writes it once built, and
// copying a database is O(1): copies share that storage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "score/alphabet.h"
#include "seq/sequence.h"

namespace aalign::seq {

// Where one sequence lies: residues at residue base + residue_offset, its
// id at id base + id_offset. Exactly the index file's SeqDir entry
// (store::SeqEntry is this type), so a mapped database reads the mapped
// directory in place.
struct DirEntry {
  std::uint64_t residue_offset = 0;
  std::uint64_t length = 0;  // residue count
  std::uint64_t id_offset = 0;
  std::uint32_t id_bytes = 0;
  std::uint32_t reserved = 0;
};
static_assert(sizeof(DirEntry) == 32);

class Database {
 public:
  // Everything a database reads, and the owner that keeps it alive.
  struct Layout {
    std::span<const DirEntry> dir;  // stored order, longest first
    const std::uint8_t* residues = nullptr;
    const char* ids = nullptr;
    // orig[pos] = original index; empty while the stored order is the
    // input order. inv[orig[pos]] == pos; null exactly when orig is empty.
    std::span<const std::uint64_t> orig;
    std::shared_ptr<const std::uint32_t[]> inv;
    std::uint64_t total_residues = 0;
    std::shared_ptr<const void> backing;  // any opaque owner
  };

  Database() = default;
  // Encodes `seqs` into owned arrays, longest first.
  Database(const score::Alphabet& alphabet,
           const std::vector<Sequence>& seqs);
  // Packs already-encoded sequences into owned arrays, longest first.
  explicit Database(const std::vector<EncodedSequence>& seqs);
  // A view of `layout`, trusted as given: the store checks a mapped
  // directory's ranges, order and permutation once, at open.
  explicit Database(Layout layout) : l_(std::move(layout)) {}

  std::size_t size() const { return l_.dir.size(); }
  bool empty() const { return l_.dir.empty(); }

  // The residues of the sequence stored at `pos`: what the kernels read.
  std::span<const std::uint8_t> residues(std::size_t pos) const {
    const DirEntry& e = l_.dir[pos];
    return {l_.residues + e.residue_offset, e.length};
  }
  std::string_view id(std::size_t pos) const {
    const DirEntry& e = l_.dir[pos];
    return {l_.ids + e.id_offset, e.id_bytes};
  }
  // The sequence stored at `pos`, its id copied.
  Record operator[](std::size_t pos) const {
    return {std::string(id(pos)), residues(pos)};
  }

  // Original (input) index of the sequence stored at `pos`.
  std::size_t original_index(std::size_t pos) const {
    return l_.orig.empty() ? pos : l_.orig[pos];
  }
  // Stored position of the sequence with original index `original`.
  std::size_t position_of(std::size_t original) const {
    return l_.inv ? l_.inv[original] : original;
  }
  // The sequence with original index `original`.
  Record by_original(std::size_t original) const {
    return (*this)[position_of(original)];
  }
  // True when the stored order differs from the input order.
  bool permuted() const { return !l_.orig.empty(); }

  // Total residue count (for GCUPS accounting).
  std::size_t total_residues() const { return l_.total_residues; }

  // The owner of the storage the layout points into (null for a default-
  // constructed database).
  const std::shared_ptr<const void>& backing() const { return l_.backing; }

 private:
  // Stores `seqs` longest first in owned arrays; `encode(s, out)` writes
  // sequence s's residues at `out`.
  template <class Seq, class Encode>
  void pack(const std::vector<Seq>& seqs, Encode encode);

  Layout l_;
};

}  // namespace aalign::seq
