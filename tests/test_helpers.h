// Shared helpers for the test suite: available-ISA enumeration, the
// distinct forms of each set-up primitive, random
// sequence/config generation, Farrar-safety filtering, residue decoding,
// and the serial database-search and striped-profile oracles.
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/query_context.h"
#include "score/alphabet.h"
#include "score/matrices.h"
#include "score/profile.h"
#include "search/database_search.h"
#include "search/top_k.h"
#include "seq/database.h"
#include "simd/isa.h"
#include "simd/primitives.h"

namespace aalign::test {

inline std::vector<simd::IsaKind> available_isas() {
  std::vector<simd::IsaKind> out;
  for (simd::IsaKind k : simd::kAllIsaKinds) {
    if (simd::isa_available(k)) out.push_back(k);
  }
  return out;
}

// One form of a simd::Primitives field, named by the ISA that owns it.
template <class Fn>
struct Form {
  std::string name;
  Fn fn;
};

// The distinct pointers simd::primitives(k) holds in `field` over every k,
// each named by the lowest ISA that resolves to it (its owner): every form
// of the primitive this binary holds and the running CPU supports, the
// scalar reference first.
template <class Fn>
std::vector<Form<Fn>> distinct_forms(Fn simd::Primitives::*field) {
  std::vector<Form<Fn>> out;
  for (const simd::IsaKind k : simd::kAllIsaKinds) {
    const Fn fn = simd::primitives(k).*field;
    bool seen = false;
    for (const Form<Fn>& f : out) seen = seen || f.fn == fn;
    if (!seen) out.push_back({simd::isa_name(k), fn});
  }
  return out;
}

inline std::vector<std::uint8_t> random_protein(std::mt19937_64& rng,
                                                std::size_t len) {
  std::uniform_int_distribution<int> d(0, 19);  // real residues only
  std::vector<std::uint8_t> v(len);
  for (auto& c : v) c = static_cast<std::uint8_t>(d(rng));
  return v;
}

// A 40-letter alphabet and matrix: letters plus the pad symbol overflow
// the 32-entry register lookup, so every backend scores from rows and the
// inter kernel fills its column profile lane by lane. Matches score +4..+9,
// mismatches -4..+1, symmetric.
inline const score::ScoreMatrix& matrix40() {
  static const score::Alphabet alphabet(
      score::AlphabetKind::Protein, "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789*-.+",
      /*wildcard=*/39);
  static const score::ScoreMatrix m = [] {
    std::mt19937_64 rng(40);
    std::vector<std::int8_t> v(40 * 40);
    for (int a = 0; a < 40; ++a) {
      v[a * 40 + a] = static_cast<std::int8_t>(4 + rng() % 6);
      for (int b = 0; b < a; ++b) {
        const auto s = static_cast<std::int8_t>(static_cast<int>(rng() % 6) - 4);
        v[a * 40 + b] = s;
        v[b * 40 + a] = s;
      }
    }
    return score::ScoreMatrix(alphabet, "M40", v);
  }();
  return m;
}

// Random residues over the first `alpha` letters.
inline std::vector<std::uint8_t> random_symbols(std::mt19937_64& rng,
                                                std::size_t len, int alpha) {
  std::uniform_int_distribution<int> d(0, alpha - 1);
  std::vector<std::uint8_t> v(len);
  for (auto& c : v) c = static_cast<std::uint8_t>(d(rng));
  return v;
}

// A mutated copy: high-identity pairs stress the lazy-F loop and the scan
// correction much harder than independent random pairs.
inline std::vector<std::uint8_t> mutate(std::mt19937_64& rng,
                                        const std::vector<std::uint8_t>& src,
                                        double sub_rate, double indel_rate) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<int> d(0, 19);
  std::vector<std::uint8_t> out;
  out.reserve(src.size() + 8);
  for (std::uint8_t c : src) {
    const double r = u(rng);
    if (r < indel_rate / 2) continue;  // deletion
    if (r < indel_rate) {              // insertion
      out.push_back(static_cast<std::uint8_t>(d(rng)));
      out.push_back(c);
      continue;
    }
    out.push_back(u(rng) < sub_rate ? static_cast<std::uint8_t>(d(rng)) : c);
  }
  if (out.empty()) out.push_back(src.empty() ? 0 : src[0]);
  return out;
}

// A 3,500-residue W/C-only protein query (BLOSUM62 W-W = 11, C-C = 9):
// its local score against a close copy passes int16's 32,767, so the
// adaptive chain runs int8, int16 and int32 on that pair.
inline std::vector<std::uint8_t> int32_scoring_query(std::mt19937_64& rng) {
  const std::uint8_t w = score::Alphabet::protein().encode("W")[0];
  const std::uint8_t c = score::Alphabet::protein().encode("C")[0];
  std::vector<std::uint8_t> v(3500);
  for (auto& r : v) r = (rng() & 1) != 0 ? w : c;
  return v;
}

// True when Farrar's lazy-F shortcut (E not refreshed from corrected H) is
// exact: no optimal alignment can require an insertion adjacent to a
// deletion. Removing one query-gap and one subject-gap character from an
// adjacent insertion/deletion pair saves at most extend+extend (when both
// gaps are longer than one) and replaces them with one substitution; the
// shortcut is exact when the substitution can never lose to that saving.
// (Identical caveat to SSW/parasail.)
inline bool farrar_safe(const score::ScoreMatrix& m, const Penalties& p) {
  return m.min_score() >= -(p.query.extend + p.subject.extend);
}

// Encoded residues back to their letters (Alphabet::itoc), for comparing
// residues as text.
inline std::string decode(const score::Alphabet& alphabet,
                          std::span<const std::uint8_t> indices) {
  std::string out;
  out.reserve(indices.size());
  for (std::uint8_t i : indices) out.push_back(alphabet.itoc(i));
  return out;
}

// A named sequence of encoded residues, as letters: what
// seq::Database(alphabet, sequences) takes and encodes back, so every byte
// must be a letter of `alphabet`.
inline seq::Sequence sequence(const score::Alphabet& alphabet, std::string id,
                              std::span<const std::uint8_t> residues) {
  return {std::move(id), decode(alphabet, residues)};
}

// A database of encoded residues with ids "s0", "s1", ... in input order.
inline seq::Database encoded_database(
    const score::Alphabet& alphabet,
    const std::vector<std::vector<std::uint8_t>>& residues) {
  std::vector<seq::Sequence> seqs;
  seqs.reserve(residues.size());
  for (std::size_t i = 0; i < residues.size(); ++i) {
    seqs.push_back(
        sequence(alphabet, std::string("s").append(std::to_string(i)),
                 residues[i]));
  }
  return seq::Database(alphabet, seqs);
}

// Gap configurations used across the property sweeps. All satisfy
// farrar_safe() for BLOSUM62 (extend pairs sum to >= 4).
inline std::vector<Penalties> test_penalties() {
  return {
      Penalties::symmetric(10, 2),  // classic affine
      Penalties::symmetric(6, 4),   // heavy extend
      Penalties::symmetric(0, 4),   // linear
      Penalties{{12, 2}, {8, 3}},   // asymmetric affine
      Penalties{{0, 5}, {0, 2}},    // asymmetric linear
  };
}

// Serial database-search oracle: one QueryContext, one thread, one subject
// at a time, then the library's remap and top-k selection. It shares no
// scheduling code with search::BatchScheduler (no tiles, pool, profile
// cache or dedup), so the executor is checked against plain per-subject
// alignment. Honors top_k and keep_all_scores; the filter and the
// timing/stat fields are not modelled.
inline search::SearchResult serial_search(const score::ScoreMatrix& matrix,
                                          const AlignConfig& cfg,
                                          const search::SearchOptions& opt,
                                          std::span<const std::uint8_t> query,
                                          const seq::Database& db) {
  const core::QueryContext ctx(matrix, cfg, opt.query, query);
  core::WorkspaceSet ws;
  std::vector<std::int32_t> scores(db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    scores[i] = ctx.align(db[i].view(), ws).kernel.score;
  }
  search::remap_scores_to_original(db, scores);
  search::SearchResult res;
  res.top = search::select_top_k(scores, opt.top_k);
  if (opt.keep_all_scores) res.scores = std::move(scores);
  return res;
}

// Striped-profile oracle: the per-cell loop the library built profiles
// with before the table fill (score/profile.h). score(a, c) is letter a
// against query symbol c; cells past m get `pad`. The engine builds are
// compared against it byte for byte.
template <class T, class Score>
score::StripedProfile<T> reference_striped_profile(
    std::span<const std::uint8_t> query, int alpha, int width, T pad,
    Score score) {
  score::StripedProfile<T> p;
  p.m = static_cast<int>(query.size());
  p.width = width;
  p.segs = (p.m + width - 1) / width;
  p.alpha = alpha;
  p.data.resize(static_cast<std::size_t>(alpha) * p.segs * width);
  for (int a = 0; a < alpha; ++a) {
    T* row = p.data.data() + static_cast<std::size_t>(a) * p.segs * width;
    for (int j = 0; j < p.segs; ++j) {
      for (int l = 0; l < width; ++l) {
        const int logical = l * p.segs + j;
        row[j * width + l] =
            logical < p.m ? static_cast<T>(score(a, query[logical])) : pad;
      }
    }
  }
  return p;
}

}  // namespace aalign::test
