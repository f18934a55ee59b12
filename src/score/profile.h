// Striped query profile (paper Fig. 4 layout, the `prof` array of Alg. 2/3).
//
// The profile gives the substitution score of every alphabet letter `a`
// against every query position, pre-arranged in the striped layout:
//   score(a, j*width + l) = matrix(a, query[l*segs + j])  (logical l*segs+j)
// Padding cells (logical index >= m) get `pad`: neg_inf-like for local
// alignment (pad cells must never win) and 0 for global/semiglobal (pad
// cells are never read and must not wrap 32-bit arithmetic).
//
// Every build starts from the striped query index (idx[j*width + l] =
// query[l*segs + j], or the pad symbol `alpha` past m) and the per-letter
// tables (table_a[c] = matrix(a, c), table_a[alpha] = pad), so that
// score(a, k) = table_a[idx[k]]. A profile holds one of two layouts:
//   - lookup: the index, m_pad * sizeof(T) bytes, and a pointer to the
//     tables. The tables belong to the ScoreMatrix, which builds them once
//     for each lane type and pad (ScoreMatrix::letter_tables), so every
//     profile on one matrix reads the same few KB; only a profile built
//     from attached LUT rows reads tables its QueryContext owns. The
//     kernels load letter a's table into registers once per column and
//     look each vector's scores up by the index (one vpermb for int8 and
//     int16, one vpermt2d for int32, on AVX-512). Backends with a
//     one-instruction lookup (simd::HasOneOpLookup) use it when
//     alpha < kLookupEntries.
//   - rows: row(a)[k] = score(a, k) written out for every letter,
//     alpha * m_pad * sizeof(T) bytes, so the inner loop is one aligned
//     load. Every other backend, and alphabets too large for the register
//     table, use it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

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

// The longest query a profile holds: its padded length, segs * width, is
// an int at every width up to 64 lanes.
inline constexpr std::size_t kMaxQueryLength = (std::size_t{1} << 31) - 64;

// Entries the in-register lookup covers (indices 0..31): a profile can
// take the lookup layout only when the letters plus the pad symbol fit,
// alpha < kLookupEntries.
inline constexpr int kLookupEntries = 32;

// How a striped index stores symbol c: as c * mul + add, the lane value
// the backend's register lookup reads (simd::HasLookup's kIndexMul and
// kIndexAdd; the identity except on AVX-512BW int16).
struct IndexCode {
  int mul = 1;
  int add = 0;
  bool operator==(const IndexCode&) const = default;
};

template <class T>
struct StripedProfile {
  int m = 0;      // query length (unpadded)
  int width = 0;  // vector lanes V
  int segs = 0;   // vector count k = ceil(m / width)
  int alpha = 0;  // alphabet size
  // Rows layout: alpha rows of padded_len() scores. Empty in the lookup
  // layout.
  util::AlignedBuffer<T> data;
  // Lookup layout: the striped query index (padded_len() symbols, stored
  // in `code`) and the letter tables it reads, which the profile does not
  // own: the matrix's (ScoreMatrix::letter_tables) or the caller's, alive
  // for as long as the profile is read. Empty and null in the rows layout.
  util::AlignedBuffer<T> index;
  IndexCode code;
  const ProfileTables<T>* tables = nullptr;

  bool lookup() const { return tables != nullptr; }
  const T* row(int letter) const {  // rows layout only
    return data.data() +
           static_cast<std::size_t>(letter) * segs * width;
  }
  int padded_len() const { return segs * width; }
  // Switches to the rows layout at the current shape (set by
  // stripe_query); the rows are left for the caller to fill.
  void use_rows() {
    index = {};
    code = {};
    tables = nullptr;
    data.resize(static_cast<std::size_t>(alpha) * padded_len());
  }
  // The score of `letter` at striped cell k, under either layout.
  T score(int letter, int k) const {
    if (lookup()) {
      using U = std::make_unsigned_t<T>;  // int8 lanes hold symbols to 255
      const int c = (static_cast<U>(index[k]) - code.add) / code.mul;
      return tables->row(letter)[c];
    }
    return row(letter)[k];
  }
};

// Tables from the matrix, tables[a][c] = matrix.at(a, c): what
// ScoreMatrix's constructor builds its letter_tables from.
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

// Sets p's shape for `query` at `width` lanes over `alpha` letters and
// writes the striped index vector, in `code`, into `idx` (p.padded_len()
// entries). Throws std::invalid_argument on an empty query, one longer
// than kMaxQueryLength (before reading any of it), a bad width, an alpha
// outside 1..255, or a query byte >= alpha (a lookup with it would read
// outside the letter tables; the message names the first such byte). The
// striped index is the transpose of the query read as `width` rows of
// `segs` bytes, written in one pass by the `stripe` primitive
// (simd/primitives.h): 16x16 byte tiles transposed in registers, each
// tile's live bytes checked against the alphabet and coded into T lanes
// (c * mul + add, the pad symbol alpha past m) as the tile is stored.
template <class T>
void stripe_query(StripedProfile<T>& p, std::span<const std::uint8_t> query,
                  int alpha, int width, util::AlignedBuffer<T>& idx,
                  IndexCode code = {});

// The lookup layout: stripe_query into p.index in `code` (the reading
// backend's), and p points at `tables`, which must outlive every read of
// p. Throws std::invalid_argument when alpha >= kLookupEntries.
template <class T>
void build_lookup_profile(StripedProfile<T>& p,
                          std::span<const std::uint8_t> query,
                          const ProfileTables<T>& tables, int width,
                          IndexCode code = {});

// The rows layout, scalar build: stripe_query, then
// row[a][k] = tables.row(a)[idx[k]].
template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ProfileTables<T>& tables, int width);

// The same from profile_tables(matrix, pad); instantiated for int32 only.
template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ScoreMatrix& matrix, int width, T pad);

}  // namespace aalign::score
