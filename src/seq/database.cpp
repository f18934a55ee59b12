#include "seq/database.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace aalign::seq {

Database::Database(const score::Alphabet& alphabet,
                   const std::vector<Sequence>& seqs) {
  // One packed buffer for every residue, encoded in place.
  std::size_t total = 0;
  for (const Sequence& s : seqs) total += s.size();
  auto buf = std::make_shared<std::vector<std::uint8_t>>(total);
  records_.reserve(seqs.size());
  std::uint8_t* out = buf->data();
  for (const Sequence& s : seqs) {
    for (const char c : s.residues) *out++ = alphabet.ctoi(c);
    records_.push_back({s.id, {out - s.size(), s.size()}});
  }
  total_residues_ = total;
  owned_.push_back(std::move(buf));
}

Database::Database(std::vector<Record> records,
                   std::shared_ptr<const void> backing)
    : records_(std::move(records)), backing_(std::move(backing)) {
  for (const Record& r : records_) total_residues_ += r.size();
}

void Database::add(EncodedSequence s) {
  // Moving the vector keeps its heap buffer, so the record's view stays
  // valid wherever owned_ reallocates to.
  auto buf =
      std::make_shared<const std::vector<std::uint8_t>>(std::move(s.data));
  total_residues_ += buf->size();
  if (!orig_.empty()) {
    // Already permuted: the new sequence's original index is its insertion
    // rank; it lands at the current back.
    orig_.push_back(orig_.size());
    inv_.push_back(inv_.size());
  }
  records_.push_back({std::move(s.id), *buf});
  owned_.push_back(std::move(buf));
}

void Database::sort_by_length_desc() {
  std::vector<std::size_t> perm(records_.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [this](std::size_t a, std::size_t b) {
                     return records_[a].size() > records_[b].size();
                   });
  const bool identity =
      std::is_sorted(perm.begin(), perm.end());
  // Nothing moved: keep whatever permutation is installed (identity, or
  // one adopted from a store file whose order is already length-sorted —
  // re-sorting a mapped database must be a true no-op).
  if (identity) return;

  std::vector<Record> sorted;
  sorted.reserve(records_.size());
  std::vector<std::size_t> new_orig(records_.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    sorted.push_back(std::move(records_[perm[i]]));
    new_orig[i] = orig_.empty() ? perm[i] : orig_[perm[i]];
  }
  records_ = std::move(sorted);
  orig_ = std::move(new_orig);
  inv_.assign(orig_.size(), 0);
  for (std::size_t pos = 0; pos < orig_.size(); ++pos) inv_[orig_[pos]] = pos;
}

void Database::adopt_permutation(std::vector<std::size_t> orig) {
  if (orig.size() != records_.size()) {
    throw std::invalid_argument(
        "Database::adopt_permutation: size mismatch");
  }
  std::vector<std::size_t> inv(orig.size(), orig.size());
  for (std::size_t pos = 0; pos < orig.size(); ++pos) {
    if (orig[pos] >= orig.size() || inv[orig[pos]] != orig.size()) {
      throw std::invalid_argument(
          "Database::adopt_permutation: not a permutation");
    }
    inv[orig[pos]] = pos;
  }
  if (std::is_sorted(orig.begin(), orig.end())) {
    // Identity: stay in the "never permuted" state, exactly like a
    // freshly parsed database whose sort did not move anything.
    orig_.clear();
    inv_.clear();
    return;
  }
  orig_ = std::move(orig);
  inv_ = std::move(inv);
}

}  // namespace aalign::seq
