#include "score/profile.h"

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

  idx.resize(static_cast<std::size_t>(p.segs) * width);
  for (int l = 0; l < width; ++l) {
    for (int j = 0; j < p.segs; ++j) {
      const int logical = l * p.segs + j;
      int c = alpha;
      if (logical < p.m) {
        c = query[logical];
        if (c >= alpha) {
          throw std::invalid_argument("profile: query symbol " +
                                      std::to_string(c) +
                                      " outside the alphabet");
        }
      }
      idx[static_cast<std::size_t>(j) * width + l] =
          static_cast<T>(c * code.mul + code.add);
    }
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
                                         const ProfileTables<T>&, int);     \
  template void build_striped_profile<T>(StripedProfile<T>&,                \
                                         std::span<const std::uint8_t>,     \
                                         const ScoreMatrix&, int, T);

AALIGN_PROFILE_INSTANTIATE(std::int8_t)
AALIGN_PROFILE_INSTANTIATE(std::int16_t)
AALIGN_PROFILE_INSTANTIATE(std::int32_t)

#undef AALIGN_PROFILE_INSTANTIATE

}  // namespace aalign::score
