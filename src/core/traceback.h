// Full-matrix traceback: reconstructs the optimal alignment path (CIGAR),
// not just its score. The paper's kernels are score-only (as are SWPS3 and
// SWAPHI); a usable library needs the path, and the QC/MI measurement that
// validates the Fig. 10 pair generator is computed from it.
//
// Memory is O(m*n) direction bytes; guarded by `max_cells`, which rejects
// pairs whose direction matrix would exceed it.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "core/config.h"
#include "score/matrices.h"

namespace aalign::core {

struct Alignment {
  long score = 0;
  // Half-open residue ranges covered by the alignment.
  std::size_t query_begin = 0, query_end = 0;
  std::size_t subject_begin = 0, subject_end = 0;
  // CIGAR with 'M' (both advance), 'I' (query-only), 'D' (subject-only),
  // run-length encoded, e.g. "12M2D31M1I8M".
  std::string cigar;
  std::size_t matches = 0;     // identical aligned residue pairs
  std::size_t columns = 0;     // alignment length incl. gaps
};

struct TracebackOptions {
  // Refuse matrices larger than this many cells (default 256M ~ 256 MB of
  // direction bytes).
  std::size_t max_cells = 256ull << 20;
};

// Computes score AND path under cfg. Scores agree exactly with
// align_sequential (tested).
Alignment align_traceback(const score::ScoreMatrix& matrix,
                          const AlignConfig& cfg,
                          std::span<const std::uint8_t> query,
                          std::span<const std::uint8_t> subject,
                          const TracebackOptions& opt = {});

// Expands an alignment into three display rows (query / midline / subject).
struct AlignmentRows {
  std::string query, midline, subject;
};
AlignmentRows render_alignment(const score::Alphabet& alphabet,
                               std::span<const std::uint8_t> query,
                               std::span<const std::uint8_t> subject,
                               const Alignment& aln);

}  // namespace aalign::core
