// Lexer for the paradigm-shaped sequential C subset accepted by AAlign's
// code-translation front end (paper Sec. V-D).
//
// The paper drives Clang to obtain an AST and pattern-matches it; this repo
// implements a self-contained lexer/recursive-descent parser for the same
// language family (Alg. 1-style kernels: const declarations, nested for
// loops, max() recurrences over 2-D tables), avoiding a Clang toolchain
// dependency while reproducing the same Table II parameter extraction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/diagnostics.h"

namespace aalign::codegen {

enum class Tok : std::uint8_t {
  Ident,    // T, GAP_OPEN, for, const, int, max, ctoi ...
  Number,   // integer literal
  LParen,
  RParen,
  LBracket,
  RBracket,
  LBrace,
  RBrace,
  Semi,
  Comma,
  Assign,     // =
  Plus,
  Minus,
  Star,
  Less,
  LessEq,
  PlusPlus,
  End,
};

// The largest integer literal the lexer accepts (INT32_MAX); a larger one
// is an AA012 error. Every fold after lexing - negation, a const's sign, a
// subscript offset, an additive chain - then sums terms of magnitude at
// most 2^31 - 1, at most one per source token, so a 64-bit long could
// overflow only past 2^32 terms.
inline constexpr long kMaxLiteral = 2147483647;

struct Token {
  Tok kind = Tok::End;
  std::string text;  // identifier spelling or literal digits
  long value = 0;    // for Number: 0..kMaxLiteral
  int line = 0;
  int col = 0;
};

// Tokenizes `source`, reporting unknown characters as AA001 diagnostics and
// skipping them, and integer literals above kMaxLiteral as AA012 (the
// token keeps kMaxLiteral), so one run surfaces every lexical problem.
// Always returns a usable (End-terminated) token stream.
std::vector<Token> lex(const std::string& source, DiagnosticEngine& diags);

const char* tok_name(Tok t);

}  // namespace aalign::codegen
