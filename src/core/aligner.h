// PairAligner: the public entry point of the library.
//
// Usage:
//   const auto& blosum = score::ScoreMatrix::blosum62();
//   PairAligner aligner(blosum, {.kind = AlignKind::Local,
//                                .pen = Penalties::symmetric(10, 2)});
//   aligner.set_query(encoded_query);  // builds the first width's profile
//   AlignResult r = aligner.align(encoded_subject);  // reusable per subject
//
// The aligner wraps a QueryContext (striped profiles per width + engines)
// and a private WorkspaceSet. With ScoreWidth::Auto the adaptive promotion
// chain runs the narrowest viable width first and retries one width up on
// saturation (the SWPS3-style 8->16->32 scheme of Fig. 11); a wider
// width's profile is built on the first promotion to it. For searching
// a whole database on many threads, use search::DatabaseSearch, which
// shares one QueryContext across threads.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/config.h"
#include "core/query_context.h"

namespace aalign {

struct AlignResult {
  long score = 0;
  Strategy strategy = Strategy::Hybrid;
  simd::IsaKind isa = simd::IsaKind::Scalar;
  ScoreWidth width = ScoreWidth::W32;
  int promotions = 0;    // adaptive width retries performed
  bool saturated = false;  // result still saturated at the widest width run
  KernelStats stats;
};

class PairAligner {
 public:
  // Throws std::invalid_argument when opt.isa is unavailable here.
  PairAligner(const score::ScoreMatrix& matrix, AlignConfig cfg,
              core::QueryOptions opt = {});

  // Encoded with the matrix's alphabet (Alphabet::encode).
  void set_query(std::span<const std::uint8_t> query);

  AlignResult align(std::span<const std::uint8_t> subject);

  const AlignConfig& config() const { return cfg_; }
  const core::QueryOptions& options() const { return opt_; }

 private:
  const score::ScoreMatrix& matrix_;
  AlignConfig cfg_;
  core::QueryOptions opt_;
  std::optional<core::QueryContext> ctx_;
  core::WorkspaceSet ws_;
};

// One-shot convenience wrapper.
AlignResult align_pair(const score::ScoreMatrix& matrix,
                       const AlignConfig& cfg,
                       std::span<const std::uint8_t> query,
                       std::span<const std::uint8_t> subject,
                       core::QueryOptions opt = {});

}  // namespace aalign
