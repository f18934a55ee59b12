// Anti-diagonal ("wavefront") alignment baseline.
//
// The oldest answer to the DP dependency problem (Wozniak 1997): cells on
// one anti-diagonal are mutually independent, so the inner loop carries no
// dependency and the COMPILER can vectorize it - the contrast to AAlign's
// manually vectorized striped kernels that the paper's introduction draws.
// Its classic weaknesses, which the striped layout exists to avoid, are
// (a) a per-cell scalar substitution lookup (query and subject indices run
// in opposite directions along a diagonal, defeating profile rows), and
// (b) short diagonals at the matrix corners. bench/ablate_width_isa pits
// this against the striped kernels to quantify exactly that gap.
#pragma once

#include <cstdint>
#include <span>

#include "core/config.h"
#include "score/matrices.h"

namespace aalign::baselines {

// 32-bit scores; supports all three alignment kinds, linear/affine gaps.
// Scores agree exactly with align_sequential (tested).
KernelResult align_wavefront(const score::ScoreMatrix& matrix,
                             const AlignConfig& cfg,
                             std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> subject);

}  // namespace aalign::baselines
