// Encoded sequence database for multi-threaded search (paper Sec. V-E).
//
// One flat table of seq::Record (id + residue span) per database, stored
// longest first: building sorts (stably, so equal lengths keep their input
// order) and records the permutation, and nothing re-orders a database
// afterwards. With a dynamic work queue that order gives near-perfect load
// balance - the paper's sort + dynamic binding, done once per database
// instead of once per search - and every search and store entry point
// takes the database by const&.
//
// The residues a record views live in the one buffer backing() keeps
// alive: the packed buffer a FASTA-built database owns, or the mapped
// index file a store-served database points into
// (store::MappedIndex::database()). Copies share that storage - it is never
// written once a record views it.
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
  // Encodes `seqs` into one packed buffer, longest first.
  Database(const score::Alphabet& alphabet,
           const std::vector<Sequence>& seqs);
  // Packs already-encoded sequences into one buffer, longest first.
  explicit Database(const std::vector<EncodedSequence>& seqs);
  // Records already in stored order (non-increasing length) whose residues
  // lie in storage `backing` keeps alive (any opaque owner; the store layer
  // passes its MappedFile). `orig[pos]` is the original index of the
  // record at `pos`; empty means identity (a shard slice). Throws
  // std::invalid_argument unless the records are length-sorted and `orig`
  // is empty or a permutation of [0, records.size()).
  Database(std::vector<Record> records, std::vector<std::size_t> orig,
           std::shared_ptr<const void> backing);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& operator[](std::size_t i) const { return records_[i]; }

  // Original (input) index of the sequence stored at `pos`.
  std::size_t original_index(std::size_t pos) const {
    return orig_.empty() ? pos : orig_[pos];
  }
  // Stored position of the sequence with original index `original`.
  std::size_t position_of(std::size_t original) const {
    return inv_.empty() ? original : inv_[original];
  }
  // The sequence with original index `original`.
  const Record& by_original(std::size_t original) const {
    return records_[position_of(original)];
  }
  // True when the stored order differs from the input order.
  bool permuted() const { return !orig_.empty(); }

  // Total residue count (for GCUPS accounting).
  std::size_t total_residues() const { return total_residues_; }

  // The owner of the residues the records view (null for a default-
  // constructed database).
  const std::shared_ptr<const void>& backing() const { return backing_; }

  auto begin() const { return records_.begin(); }
  auto end() const { return records_.end(); }

 private:
  // Stores `seqs` longest first in one owned buffer; `encode(s, out)`
  // writes sequence s's residues at `out`.
  template <class Seq, class Encode>
  void pack(const std::vector<Seq>& seqs, Encode encode);
  // Validates and installs `orig` (an identity folds to the empty state).
  void set_order(std::vector<std::size_t> orig);

  std::vector<Record> records_;
  // orig_[pos] = original index; inv_[original] = pos. Both empty while the
  // stored order is the input order (identity permutation).
  std::vector<std::size_t> orig_;
  std::vector<std::size_t> inv_;
  std::size_t total_residues_ = 0;
  std::shared_ptr<const void> backing_;
};

}  // namespace aalign::seq
