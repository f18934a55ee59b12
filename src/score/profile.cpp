#include "score/profile.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "simd/isa.h"
#include "simd/primitives.h"

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
  if (query.size() > kMaxQueryLength) {
    throw std::invalid_argument(
        "profile: query of " + std::to_string(query.size()) +
        " residues exceeds the " + std::to_string(kMaxQueryLength) +
        "-residue limit");
  }
  if (width <= 0) throw std::invalid_argument("profile: bad vector width");
  // The pad symbol `alpha` must fit the index's bytes.
  if (alpha <= 0 || alpha > 255) {
    throw std::invalid_argument("profile: alphabet size outside 1..255");
  }

  p.m = static_cast<int>(query.size());
  p.width = width;
  p.segs = (p.m + width - 1) / width;
  p.alpha = alpha;

  idx.resize(static_cast<std::size_t>(p.segs) * width);
  const std::uint8_t top = simd::primitives().stripe(
      query.data(), query.size(), static_cast<std::size_t>(p.segs),
      static_cast<std::size_t>(width), static_cast<std::uint8_t>(alpha),
      {static_cast<int>(sizeof(T)), code.mul, code.add}, idx.data());
  if (top >= alpha) {
    const int c = *std::find_if(query.begin(), query.end(),
                                [&](std::uint8_t q) { return q >= alpha; });
    throw std::invalid_argument("profile: query symbol " + std::to_string(c) +
                                " outside the alphabet");
  }
}

template <class T>
void build_lookup_profile(StripedProfile<T>& p,
                          std::span<const std::uint8_t> query,
                          const ProfileTables<T>& tables, int width,
                          IndexCode code) {
  if (tables.alpha >= kLookupEntries) {
    throw std::invalid_argument(
        "profile: alphabet too large for the lookup layout");
  }
  stripe_query(p, query, tables.alpha, width, p.index, code);
  p.code = code;
  p.data = {};
  p.tables = &tables;
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
  template void build_lookup_profile<T>(                                    \
      StripedProfile<T>&, std::span<const std::uint8_t>,                    \
      const ProfileTables<T>&, int, IndexCode);                             \
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
