// Offline index builder: FASTA-parsed database -> the versioned binary
// format of store/format.h. Deliberately DETERMINISTIC: the output bytes
// are a pure function of (sequences, matrix, params) — no timestamps,
// paths, or machine identity — so CI can assert byte-identical rebuilds
// and cache artifacts keyed on (format version, input hash).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "filter/signature.h"
#include "score/matrices.h"
#include "seq/database.h"

namespace aalign::store {

struct BuildParams {
  filter::FilterParams filter;  // signature-section parameters
  // Greedy residue budget per shard (length-sorted fill); a shard always
  // takes at least one sequence, so oversized subjects get a shard alone.
  std::size_t shard_target_residues = 1u << 20;
};

// Serializes `db` in its stored (longest-first) order with its
// permutation, so mapped positions and original indices match the
// FASTA-parse path bit for bit. Throws StoreError on internal
// inconsistencies and std::invalid_argument on bad params.
std::vector<std::uint8_t> build_index_bytes(const seq::Database& db,
                                            const score::ScoreMatrix& matrix,
                                            const BuildParams& params = {});

// build_index_bytes + atomic-ish write (temp file + rename) to `path`.
// Throws StoreError(StoreErrc::IoError) on write failure.
void write_index(const std::string& path, const seq::Database& db,
                 const score::ScoreMatrix& matrix,
                 const BuildParams& params = {});

}  // namespace aalign::store
