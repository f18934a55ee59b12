#include "seq/database.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace aalign::seq {

namespace {

// The arrays a FASTA-built database owns, under one shared owner.
struct Owned {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint64_t> id_offsets;
  std::vector<std::uint32_t> orig;
  std::vector<std::uint32_t> inv;
  std::string ids;
  std::vector<std::uint8_t> residues;
};

}  // namespace

Database::Database(const score::Alphabet& alphabet,
                   const std::vector<Sequence>& seqs) {
  const std::size_t n = seqs.size();
  // The u32 permutation and its inverse index fewer than 2^32 - 1
  // sequences, the bound the store's loader checks too.
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("Database: more sequences than a u32 indexes");
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&seqs](std::size_t a, std::size_t b) {
                     return seqs[a].size() > seqs[b].size();
                   });

  auto owned = std::make_shared<Owned>();
  std::size_t residues = 0;
  std::size_t id_bytes = 0;
  for (const Sequence& s : seqs) {
    residues += s.size();
    id_bytes += s.id.size();
  }
  owned->offsets.resize(n + 1);
  owned->id_offsets.resize(n + 1);
  owned->ids.reserve(id_bytes);
  owned->residues.resize(residues);
  std::uint64_t at = 0;
  bool identity = true;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const Sequence& s = seqs[order[pos]];
    owned->offsets[pos] = at;
    owned->id_offsets[pos] = owned->ids.size();
    owned->ids += s.id;
    alphabet.encode(s.residues, owned->residues.data() + at);
    at += s.size();
    identity = identity && order[pos] == pos;
  }
  owned->offsets[n] = at;
  owned->id_offsets[n] = owned->ids.size();
  if (!identity) {
    owned->orig.assign(order.begin(), order.end());
    owned->inv.resize(n);
    for (std::size_t pos = 0; pos < n; ++pos) {
      owned->inv[order[pos]] = static_cast<std::uint32_t>(pos);
    }
    l_.orig = owned->orig;
    l_.inv = std::shared_ptr<const std::uint32_t[]>(owned, owned->inv.data());
  }
  l_.offsets = owned->offsets;
  l_.residues = owned->residues.data();
  l_.id_offsets = owned->id_offsets;
  l_.ids = owned->ids.data();
  l_.backing = std::move(owned);
}

}  // namespace aalign::seq
