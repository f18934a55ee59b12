#include "seq/database.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace aalign::seq {

template <class Seq, class Encode>
void Database::pack(const std::vector<Seq>& seqs, Encode encode) {
  std::vector<std::size_t> orig(seqs.size());
  std::iota(orig.begin(), orig.end(), std::size_t{0});
  std::stable_sort(orig.begin(), orig.end(),
                   [&seqs](std::size_t a, std::size_t b) {
                     return seqs[a].size() > seqs[b].size();
                   });
  for (const Seq& s : seqs) total_residues_ += s.size();
  auto buf = std::make_shared<std::vector<std::uint8_t>>(total_residues_);
  records_.reserve(seqs.size());
  std::uint8_t* out = buf->data();
  for (const std::size_t i : orig) {
    const Seq& s = seqs[i];
    encode(s, out);
    records_.push_back({s.id, {out, s.size()}});
    out += s.size();
  }
  backing_ = std::move(buf);
  set_order(std::move(orig));
}

Database::Database(const score::Alphabet& alphabet,
                   const std::vector<Sequence>& seqs) {
  pack(seqs, [&alphabet](const Sequence& s, std::uint8_t* out) {
    for (const char c : s.residues) *out++ = alphabet.ctoi(c);
  });
}

Database::Database(const std::vector<EncodedSequence>& seqs) {
  pack(seqs, [](const EncodedSequence& s, std::uint8_t* out) {
    std::copy(s.data.begin(), s.data.end(), out);
  });
}

Database::Database(std::vector<Record> records, std::vector<std::size_t> orig,
                   std::shared_ptr<const void> backing)
    : records_(std::move(records)), backing_(std::move(backing)) {
  for (std::size_t pos = 0; pos < records_.size(); ++pos) {
    if (pos > 0 && records_[pos].size() > records_[pos - 1].size()) {
      throw std::invalid_argument("Database: records not longest first");
    }
    total_residues_ += records_[pos].size();
  }
  if (!orig.empty()) set_order(std::move(orig));
}

void Database::set_order(std::vector<std::size_t> orig) {
  const std::size_t n = records_.size();
  if (orig.size() != n) {
    throw std::invalid_argument("Database: permutation size mismatch");
  }
  // inv_ doubles as the seen-marker: n means "no position yet".
  inv_.assign(n, n);
  bool identity = true;
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (orig[pos] >= n || inv_[orig[pos]] != n) {
      throw std::invalid_argument("Database: not a permutation");
    }
    inv_[orig[pos]] = pos;
    identity = identity && orig[pos] == pos;
  }
  if (identity) {
    inv_ = {};
  } else {
    orig_ = std::move(orig);
  }
}

}  // namespace aalign::seq
