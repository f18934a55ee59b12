#include "core/aligner.h"

#include <stdexcept>

namespace aalign {

PairAligner::PairAligner(const score::ScoreMatrix& matrix, AlignConfig cfg,
                         core::QueryOptions opt)
    : matrix_(matrix), cfg_(cfg), opt_(opt) {
  cfg_.validate();
  if (!simd::isa_available(opt_.isa)) {
    throw std::invalid_argument(std::string("PairAligner: ISA '") +
                                simd::isa_name(opt_.isa) +
                                "' is not available on this machine");
  }
}

void PairAligner::set_query(std::span<const std::uint8_t> query) {
  ctx_.emplace(matrix_, cfg_, opt_, query);
}

AlignResult PairAligner::align(std::span<const std::uint8_t> subject) {
  if (!ctx_) {
    throw std::logic_error("PairAligner: set_query() before align()");
  }
  const core::AdaptiveResult ar = ctx_->align(subject, ws_);
  AlignResult r;
  r.score = ar.kernel.score;
  r.strategy = opt_.strategy;
  r.isa = opt_.isa;
  r.width = ar.width;
  r.promotions = ar.promotions;
  r.saturated = ar.kernel.saturated;
  r.stats = ar.kernel.stats;
  return r;
}

AlignResult align_pair(const score::ScoreMatrix& matrix,
                       const AlignConfig& cfg,
                       std::span<const std::uint8_t> query,
                       std::span<const std::uint8_t> subject,
                       core::QueryOptions opt) {
  PairAligner a(matrix, cfg, opt);
  a.set_query(query);
  return a.align(subject);
}

}  // namespace aalign
