// Encoded sequence database for multi-threaded search (paper Sec. V-E).
//
// One flat table of seq::Record (id + residue span) per database. The
// residues a record views live in storage the database keeps alive: a
// FASTA-built database owns them (one packed buffer for the constructor,
// one buffer per add()); a store-served database pins the mapped index
// file its records point into (store::MappedIndex::database()). Copies
// share that storage - it is never written once a record views it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "score/alphabet.h"
#include "seq/sequence.h"

namespace aalign::seq {

class Database {
 public:
  Database() = default;
  Database(const score::Alphabet& alphabet,
           const std::vector<Sequence>& seqs);
  // Records whose residues lie in storage `backing` keeps alive (any
  // opaque owner; the store layer passes its MappedFile).
  Database(std::vector<Record> records, std::shared_ptr<const void> backing);

  void add(EncodedSequence s);

  // Longest-first ordering: with a dynamic work queue this gives near-
  // perfect load balance (the paper's sort + dynamic binding mechanism).
  // The permutation is recorded, so callers can always map a current
  // position back to the sequence's original insertion index (and search
  // results are reported in original-index terms regardless of sorting).
  void sort_by_length_desc();

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& operator[](std::size_t i) const { return records_[i]; }

  // Original insertion index of the sequence currently at `pos`.
  std::size_t original_index(std::size_t pos) const {
    return orig_.empty() ? pos : orig_[pos];
  }
  // Current position of the sequence originally added at `original`.
  std::size_t position_of(std::size_t original) const {
    return inv_.empty() ? original : inv_[original];
  }
  // The sequence originally added at `original` (wherever it now lives).
  const Record& by_original(std::size_t original) const {
    return records_[position_of(original)];
  }
  // True once a sort has re-ordered the database.
  bool permuted() const { return !orig_.empty(); }

  // Total residue count (for GCUPS accounting).
  std::size_t total_residues() const { return total_residues_; }

  // The external owner the records view (null for a FASTA-built
  // database, which owns its residues).
  const std::shared_ptr<const void>& backing() const { return backing_; }

  // Installs a stored-order -> original-index permutation (store files
  // persist the sort the builder applied; adopting it makes a mapped
  // database report the same original indices as the FASTA-parse + sort
  // path). Throws std::invalid_argument unless `orig` is a permutation
  // of [0, size()).
  void adopt_permutation(std::vector<std::size_t> orig);

  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

 private:
  std::vector<Record> records_;
  // orig_[pos] = original index; inv_[original] = pos. Both empty while the
  // database is still in insertion order (identity permutation).
  std::vector<std::size_t> orig_;
  std::vector<std::size_t> inv_;
  std::size_t total_residues_ = 0;
  std::shared_ptr<const void> backing_;
  // Residue buffers this database owns (shared with its copies).
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> owned_;
};

}  // namespace aalign::seq
