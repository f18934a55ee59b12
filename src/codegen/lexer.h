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

struct Token {
  Tok kind = Tok::End;
  std::string text;  // identifier spelling or literal digits
  long value = 0;    // for Number
  int line = 0;
  int col = 0;
};

// Tokenizes `source`, reporting unknown characters as AA001 diagnostics and
// skipping them, so one run surfaces every lexical problem. Always returns a
// usable (End-terminated) token stream.
std::vector<Token> lex(const std::string& source, DiagnosticEngine& diags);

const char* tok_name(Tok t);

}  // namespace aalign::codegen
