// Encoded sequence database for multi-threaded search (paper Sec. V-E).
//
// A database is stored longest first: building sorts (stably, so equal
// lengths keep their input order) and records the permutation, and nothing
// re-orders a database afterwards. With a dynamic work queue that order
// gives near-perfect load balance - the paper's sort + dynamic binding,
// done once per database instead of once per search - and every search and
// store entry point takes the database by const&.
//
// One layout, the index file's own (docs/database_format.md), that of an
// Arrow variable-length column: the residues packed back to back and
// u64[size() + 1] offsets into them, so sequence pos is [off[pos],
// off[pos + 1]); the ids the same way; the u32 original-index permutation
// and a shared u32 inverse. A store-served database
// (store::MappedIndex::database()) points straight at the mapped sections;
// a FASTA-built one owns the same arrays, which the builder writes
// verbatim. Either way backing() keeps the storage alive, nothing writes
// it once built, and copying a database is O(1): copies share that
// storage. A contiguous run of a database is a database over subspans of
// the same offset arrays (store::MappedIndex::database(slice)).
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

class Database {
 public:
  // Everything a database reads, and the owner that keeps it alive.
  struct Layout {
    // Stored order, longest first: sequence pos is residues[offsets[pos],
    // offsets[pos + 1]) and ids[id_offsets[pos], id_offsets[pos + 1]).
    // Each holds size() + 1 entries, or none for an empty database; they
    // need not start at 0 (a slice's do not).
    std::span<const std::uint64_t> offsets;
    const std::uint8_t* residues = nullptr;
    std::span<const std::uint64_t> id_offsets;
    const char* ids = nullptr;
    // orig[pos] = original index; empty while the stored order is the
    // input order. inv[orig[pos]] == pos; null exactly when orig is empty.
    std::span<const std::uint32_t> orig;
    std::shared_ptr<const std::uint32_t[]> inv;
    std::shared_ptr<const void> backing;  // any opaque owner
  };

  Database() = default;
  // Encodes `seqs` into owned arrays, longest first.
  Database(const score::Alphabet& alphabet,
           const std::vector<Sequence>& seqs);
  // A view of `layout`, trusted as given: the store checks a mapped
  // index's offsets, order and permutation once, at open.
  explicit Database(Layout layout) : l_(std::move(layout)) {}

  std::size_t size() const {
    return l_.offsets.empty() ? 0 : l_.offsets.size() - 1;
  }
  bool empty() const { return size() == 0; }

  // The residues of the sequence stored at `pos`: what the kernels read.
  std::span<const std::uint8_t> residues(std::size_t pos) const {
    return {l_.residues + l_.offsets[pos],
            l_.offsets[pos + 1] - l_.offsets[pos]};
  }
  std::string_view id(std::size_t pos) const {
    return {l_.ids + l_.id_offsets[pos],
            l_.id_offsets[pos + 1] - l_.id_offsets[pos]};
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
  std::size_t total_residues() const {
    return l_.offsets.empty() ? 0 : l_.offsets.back() - l_.offsets.front();
  }

  // The arrays the database reads, as the store's builder writes them.
  const Layout& layout() const { return l_; }

  // The owner of the storage the layout points into (null for a default-
  // constructed database).
  const std::shared_ptr<const void>& backing() const { return l_.backing; }

 private:
  Layout l_;
};

}  // namespace aalign::seq
