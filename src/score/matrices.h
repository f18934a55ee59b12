// Substitution matrices (the paper's gamma_{i,j} / BLOSUM62 in Alg. 1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "score/alphabet.h"
#include "util/aligned_buffer.h"

namespace aalign::score {

// Per-letter lookup tables the striped profiles read (score/profile.h):
// row(a)[c] = the score of letter a against query symbol c for every
// c < alpha, and row(a)[alpha] = pad (the symbol the striped index carries
// past m). Rows are 64-byte aligned and at least 64 entries apart, zero
// past alpha: the layout the backends' in-register table lookup
// (simd::HasLookup) loads.
template <class T>
struct ProfileTables {
  int alpha = 0;
  int stride = 0;
  util::AlignedBuffer<T> data;

  const T* row(int letter) const {
    return data.data() + static_cast<std::size_t>(letter) * stride;
  }
};

// A dense |A| x |A| substitution matrix over an Alphabet. Values fit in
// int8 so the same table feeds the 8-, 16- and 32-bit kernels directly.
class ScoreMatrix {
 public:
  ScoreMatrix(const Alphabet& alphabet, std::string name,
              std::span<const std::int8_t> values);

  // Standard NCBI protein matrices.
  static const ScoreMatrix& blosum62();
  static const ScoreMatrix& blosum45();
  static const ScoreMatrix& blosum80();
  static const ScoreMatrix& pam250();

  // Simple DNA scoring: +match on the diagonal, -mismatch elsewhere,
  // 0 against the wildcard N. Throws std::invalid_argument when match or
  // -mismatch lies outside the int8 range the table stores.
  static ScoreMatrix dna(int match, int mismatch);

  const Alphabet& alphabet() const { return *alphabet_; }
  const std::string& name() const { return name_; }

  std::int8_t at(int a, int b) const {
    return values_[static_cast<std::size_t>(a) * size_ + b];
  }
  std::int8_t score(char a, char b) const {
    return at(alphabet_->ctoi(a), alphabet_->ctoi(b));
  }

  int size() const { return size_; }
  int max_score() const { return max_score_; }
  int min_score() const { return min_score_; }

  // This matrix's letter tables at lane type T (int8, int16 or int32) for
  // the pad cell `pad`, which must be one of the two the kernels use:
  // simd::neg_inf<T>() (local alignment) or 0 (every other kind). All six
  // are built by the constructor, and every profile on the matrix reads
  // them in place, copies of the matrix included. Throws
  // std::invalid_argument for any other pad.
  template <class T>
  const ProfileTables<T>& letter_tables(T pad) const;

 private:
  struct LetterTables;

  const Alphabet* alphabet_;
  std::string name_;
  int size_;
  int max_score_;
  int min_score_;
  std::vector<std::int8_t> values_;
  std::shared_ptr<const LetterTables> tables_;
};

}  // namespace aalign::score
