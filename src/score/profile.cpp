#include "score/profile.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace aalign::score {

namespace {

// Rows of at least 64 entries cover every backend's table load (AVX-512BW
// int8 reads 64); each row is a multiple of 64 bytes, so all stay aligned.
template <class T, class Score>
ProfileTables<T> make_tables(int alpha, T pad, Score score) {
  // The pad symbol `alpha` must fit the index vector's unsigned lanes.
  if (alpha <= 0 || alpha > 255) {
    throw std::invalid_argument("profile: alphabet size outside 1..255");
  }
  ProfileTables<T> t;
  t.alpha = alpha;
  t.stride = (alpha / 64 + 1) * 64;
  t.data.resize(static_cast<std::size_t>(alpha) * t.stride);
  t.data.zero();
  for (int a = 0; a < alpha; ++a) {
    T* row = t.data.data() + static_cast<std::size_t>(a) * t.stride;
    for (int c = 0; c < alpha; ++c) row[c] = score(a, c);
    row[alpha] = pad;
  }
  return t;
}

// Swaps the high s-bit block of every 2s-bit block of `a` with the low
// block of `b`'s: after it, a holds (a.low, b.low) and b (a.high, b.high).
inline void swap_blocks(std::uint64_t& a, std::uint64_t& b, int s,
                        std::uint64_t low_blocks) {
  const std::uint64_t t = ((a >> s) ^ b) & low_blocks;
  b ^= t;
  a ^= t << s;
}

// Transposes an 8x8 byte tile held as eight little-endian rows: r[c] ends
// up holding column c. Three rounds of 64-bit swaps, of 4-, 2- and 1-byte
// blocks.
inline void transpose8x8(std::uint64_t (&r)[8]) {
  for (int i : {0, 1, 2, 3}) {
    swap_blocks(r[i], r[i + 4], 32, 0x00000000FFFFFFFFull);
  }
  for (int i : {0, 1, 4, 5}) {
    swap_blocks(r[i], r[i + 2], 16, 0x0000FFFF0000FFFFull);
  }
  for (int i : {0, 2, 4, 6}) {
    swap_blocks(r[i], r[i + 1], 8, 0x00FF00FF00FF00FFull);
  }
}

// out[j*width + l] = q[l*segs + j] for every l*segs + j < m; the pad cells
// are left alone. The query is a width x segs byte matrix (row l is
// q[l*segs, l*segs + segs)), of which the first m / segs rows are whole:
// they go through in 8x8 tiles, the rest cell by cell.
void transpose_query(const std::uint8_t* q, int m, int segs, int width,
                     std::uint8_t* out) {
  static_assert(std::endian::native == std::endian::little);
  const auto at = [](int row, int col, int stride) {
    return static_cast<std::size_t>(row) * stride + col;
  };
  const int rows8 = m / segs / 8 * 8;
  const int cols8 = segs / 8 * 8;
  for (int l0 = 0; l0 < rows8; l0 += 8) {
    for (int j0 = 0; j0 < cols8; j0 += 8) {
      std::uint64_t r[8];
      for (int i = 0; i < 8; ++i) {
        std::memcpy(&r[i], q + at(l0 + i, j0, segs), 8);
      }
      transpose8x8(r);
      for (int c = 0; c < 8; ++c) {
        std::memcpy(out + at(j0 + c, l0, width), &r[c], 8);
      }
    }
    for (int j = cols8; j < segs; ++j) {
      for (int l = l0; l < l0 + 8; ++l) {
        out[at(j, l, width)] = q[at(l, j, segs)];
      }
    }
  }
  const auto mm = static_cast<std::size_t>(m);
  for (int l = rows8; l < width; ++l) {
    for (int j = 0; j < segs && at(l, j, segs) < mm; ++j) {
      out[at(j, l, width)] = q[at(l, j, segs)];
    }
  }
}

}  // namespace

template <class T>
ProfileTables<T> profile_tables(const ScoreMatrix& matrix, T pad) {
  return make_tables<T>(matrix.size(), pad, [&](int a, int c) {
    return static_cast<T>(matrix.at(a, c));
  });
}

template <class T>
ProfileTables<T> transposed_profile_tables(const ScoreMatrix& matrix, T pad) {
  return make_tables<T>(matrix.size(), pad, [&](int q, int c) {
    return static_cast<T>(matrix.at(c, q));
  });
}

template <class T>
ProfileTables<T> profile_tables(std::span<const T> lut, std::size_t stride,
                                int alpha, T pad) {
  if (stride < static_cast<std::size_t>(alpha) ||
      lut.size() < static_cast<std::size_t>(alpha) * stride) {
    throw std::invalid_argument("profile: LUT smaller than the alphabet");
  }
  return make_tables<T>(alpha, pad, [&](int a, int c) {
    return lut[static_cast<std::size_t>(c) * stride +
               static_cast<std::size_t>(a)];
  });
}

template <class T>
void stripe_query(StripedProfile<T>& p, std::span<const std::uint8_t> query,
                  int alpha, int width, util::AlignedBuffer<T>& idx,
                  IndexCode code) {
  if (query.empty()) throw std::invalid_argument("profile: empty query");
  if (width <= 0) throw std::invalid_argument("profile: bad vector width");

  p.m = static_cast<int>(query.size());
  p.width = width;
  p.segs = (p.m + width - 1) / width;
  p.alpha = alpha;

  const std::size_t n = static_cast<std::size_t>(p.segs) * width;
  idx.resize(n);
  std::uint8_t top = 0;
  for (const std::uint8_t c : query) top = std::max(top, c);
  if (top >= alpha) {
    const int c = *std::find_if(query.begin(), query.end(),
                                [&](std::uint8_t q) { return q >= alpha; });
    throw std::invalid_argument("profile: query symbol " + std::to_string(c) +
                                " outside the alphabet");
  }

  // int8 lanes in the identity code take the query bytes as they are;
  // every other lane type is staged as bytes and coded row by row.
  const bool raw = sizeof(T) == 1 && code == IndexCode{};
  std::unique_ptr<std::uint8_t[]> staging;
  std::uint8_t* bytes = nullptr;
  if (raw) {
    bytes = reinterpret_cast<std::uint8_t*>(idx.data());
  } else {
    staging = std::make_unique_for_overwrite<std::uint8_t[]>(n);
    bytes = staging.get();
  }
  transpose_query(query.data(), p.m, p.segs, width, bytes);

  const T pad = static_cast<T>(alpha * code.mul + code.add);
  for (int j = 0; j < p.segs; ++j) {
    const int live = (p.m - j + p.segs - 1) / p.segs;  // lanes l*segs+j < m
    T* row = idx.data() + static_cast<std::size_t>(j) * width;
    if (!raw) {
      const std::uint8_t* src = bytes + static_cast<std::size_t>(j) * width;
      for (int l = 0; l < live; ++l) {
        row[l] = static_cast<T>(src[l] * code.mul + code.add);
      }
    }
    std::fill(row + live, row + width, pad);
  }
}

template <class T>
void build_lookup_profile(StripedProfile<T>& p,
                          std::span<const std::uint8_t> query,
                          ProfileTables<T> tables, int width,
                          IndexCode code) {
  if (tables.alpha >= kLookupEntries) {
    throw std::invalid_argument(
        "profile: alphabet too large for the lookup layout");
  }
  stripe_query(p, query, tables.alpha, width, p.index, code);
  p.code = code;
  p.data = {};
  p.tables = std::move(tables);
}

template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ProfileTables<T>& tables, int width) {
  util::AlignedBuffer<T> idx;
  stripe_query(p, query, tables.alpha, width, idx);
  p.use_rows();
  using U = std::make_unsigned_t<T>;  // int8 lanes hold symbols up to 255
  const std::size_t n = idx.size();
  for (int a = 0; a < p.alpha; ++a) {
    const T* tab = tables.row(a);
    T* row = p.data.data() + static_cast<std::size_t>(a) * n;
    for (std::size_t k = 0; k < n; ++k) row[k] = tab[static_cast<U>(idx[k])];
  }
}

template <class T>
void build_striped_profile(StripedProfile<T>& p,
                           std::span<const std::uint8_t> query,
                           const ScoreMatrix& matrix, int width, T pad) {
  build_striped_profile(p, query, profile_tables(matrix, pad), width);
}

#define AALIGN_PROFILE_INSTANTIATE(T)                                       \
  template ProfileTables<T> profile_tables<T>(const ScoreMatrix&, T);       \
  template ProfileTables<T> transposed_profile_tables<T>(                   \
      const ScoreMatrix&, T);                                               \
  template ProfileTables<T> profile_tables<T>(std::span<const T>,           \
                                              std::size_t, int, T);         \
  template void stripe_query<T>(StripedProfile<T>&,                         \
                                std::span<const std::uint8_t>, int, int,    \
                                util::AlignedBuffer<T>&, IndexCode);        \
  template void build_lookup_profile<T>(StripedProfile<T>&,                 \
                                        std::span<const std::uint8_t>,      \
                                        ProfileTables<T>, int, IndexCode);  \
  template void build_striped_profile<T>(StripedProfile<T>&,                \
                                         std::span<const std::uint8_t>,     \
                                         const ProfileTables<T>&, int);

AALIGN_PROFILE_INSTANTIATE(std::int8_t)
AALIGN_PROFILE_INSTANTIATE(std::int16_t)
AALIGN_PROFILE_INSTANTIATE(std::int32_t)

#undef AALIGN_PROFILE_INSTANTIATE

// The matrix overload is for int32 callers (aalignc-generated kernels,
// examples/hybrid_trace); narrower lanes build from profile_tables().
template void build_striped_profile<std::int32_t>(
    StripedProfile<std::int32_t>&, std::span<const std::uint8_t>,
    const ScoreMatrix&, int, std::int32_t);

}  // namespace aalign::score
