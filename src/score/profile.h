// Striped query profile (paper Fig. 4 layout, the `prof` array of Alg. 2/3).
//
// For each alphabet letter `a`, row `a` holds the substitution scores of
// `a` against every query position, pre-arranged in the striped layout so
// the kernels' inner loop is a single aligned vector load:
//   row[a][j*width + l] = matrix(a, query[l*segs + j])   (logical l*segs+j)
// Padding cells (logical index >= m) get `pad`: neg_inf-like for local
// alignment (pad cells must never win) and 0 for global/semiglobal (pad
// cells are never read and must not wrap 32-bit arithmetic).
//
// Every build is one fill: stripe the query into an index vector once
// (idx[j*width + l] = query[l*segs + j], or the pad symbol `alpha` past m),
// then each letter row is a table lookup, row[a][k] = table_a[idx[k]].
// The scalar fill here is the reference and the fallback; the engines
// (core/engine.h) do the same lookup one vector at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "score/matrices.h"
#include "util/aligned_buffer.h"

namespace aalign::score {

// Prebuilt per-tier substitution rows, typically the ProfileLut sections
// of a mapped .aidx index (store/format.h): lut[q * stride + a] holds the
// tier-clamped matrix.at(a, q), one row per QUERY symbol. When attached
// to QueryOptions, the striped-profile build reads its letter tables from
// these rows instead of the matrix - bit-identical as long as the LUT was
// built from the same matrix (the daemon checks the stored matrix name),
// since the builder's clamp is the identity for every real matrix entry.
struct ProfileLutView {
  std::span<const std::int8_t> i8;
  std::span<const std::int16_t> i16;
  std::span<const std::int32_t> i32;
  std::size_t stride = 0;
  std::shared_ptr<const void> backing;  // pins the mapped file

  bool empty() const { return stride == 0; }
};

template <class T>
struct StripedProfile {
  int m = 0;      // query length (unpadded)
  int width = 0;  // vector lanes V
  int segs = 0;   // vector count k = ceil(m / width)
  int alpha = 0;  // alphabet size
  util::AlignedBuffer<T> data;

  const T* row(int letter) const {
    return data.data() +
           static_cast<std::size_t>(letter) * segs * width;
  }
  int padded_len() const { return segs * width; }
};

// Per-letter lookup tables the fill reads: row(a)[c] = the score of
// letter a against query symbol c for every c < alpha, and row(a)[alpha] =
// pad (the symbol the striped index carries past m). Rows are 64-byte
// aligned and at least 64 entries apart, zero past alpha: the layout the
// backends' in-register 32-entry table lookup loads.
template <class T>
struct ProfileTables {
  int alpha = 0;
  int stride = 0;
  util::AlignedBuffer<T> data;

  const T* row(int letter) const {
    return data.data() + static_cast<std::size_t>(letter) * stride;
  }
};

// Tables from the matrix, tables[a][c] = matrix.at(a, c).
template <class T>
ProfileTables<T> profile_tables(const ScoreMatrix& matrix, T pad);

// The same format transposed, tables[q][c] = matrix.at(c, q): one row per
// query symbol, indexed by subject character. The inter-sequence kernel
// (core/inter_kernel.h) looks up every lane's subject character at once.
template <class T>
ProfileTables<T> transposed_profile_tables(const ScoreMatrix& matrix, T pad);

// Tables from prebuilt LUT rows, tables[a][c] = lut[c * stride + a].
// `alpha` is the alphabet (row length actually consumed); `lut` must hold
// at least alpha rows of `stride` entries.
template <class T>
ProfileTables<T> profile_tables(std::span<const T> lut, std::size_t stride,
                                int alpha, T pad);

// Sizes `p` for `query` at `width` lanes over `alpha` letters and writes
// the striped index vector into `idx` (p.padded_len() entries). Throws
// std::invalid_argument on an empty query, a bad width, or a query byte
// >= alpha (a lookup with it would read outside the letter tables).
template <class T>
void stripe_query(StripedProfile<T>& p, std::span<const std::uint8_t> query,
                  int alpha, int width, util::AlignedBuffer<T>& idx);

// The scalar build: stripe_query, then row[a][k] = tables.row(a)[idx[k]].
template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ProfileTables<T>& tables, int width);

template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ScoreMatrix& matrix, int width, T pad);

}  // namespace aalign::score
