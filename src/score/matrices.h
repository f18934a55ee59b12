// Substitution matrices (the paper's gamma_{i,j} / BLOSUM62 in Alg. 1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "score/alphabet.h"

namespace aalign::score {

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

 private:
  const Alphabet* alphabet_;
  std::string name_;
  int size_;
  int max_score_;
  int min_score_;
  std::vector<std::int8_t> values_;
};

}  // namespace aalign::score
