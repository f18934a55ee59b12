// Recursive-descent parser producing the small AST the analyzer pattern-
// matches (the stand-in for the paper's Clang AST + Matcher/Visitor pass).
//
// Accepted language (everything Alg. 1 needs):
//   program   := { constdecl | forloop | assign }
//   constdecl := 'const' 'int' IDENT '=' addexpr ';'
//   forloop   := 'for' '(' IDENT '=' NUM ';' IDENT ('<'|'<=') bound ';'
//                 IDENT '++' ')' stmt
//   stmt      := '{' {stmt} '}' | forloop | assign
//   assign    := cell {'=' cell} '=' expr ';'
//   expr      := 'max' '(' expr {',' expr} ')' | addexpr
//   addexpr   := term {('+'|'-') term}
//   term      := factor {'*' factor}
//   factor    := NUM | '-' factor | IDENT | cell | maxexpr
//   cell      := IDENT '[' index ']' [ '[' index ']' ]
//   index     := addexpr over {IDENT, NUM} | 'ctoi' '(' IDENT '[' index ']' ')'
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/diagnostics.h"
#include "codegen/lexer.h"

namespace aalign::codegen {

// A subscript like [i-1], [0], or [ctoi(Q[j-1])].
struct IndexRef {
  std::string var;  // loop variable, empty for pure constants
  long off = 0;
  std::string seq;   // sequence name when wrapped in a lookup (ctoi/Q[...])
};

struct Expr {
  enum class Kind { Number, ConstRef, Cell, Add, Mul, Neg, Max };
  Kind kind = Kind::Number;
  long number = 0;
  std::string name;             // ConstRef ident or Cell table name
  std::vector<IndexRef> index;  // Cell subscripts
  std::vector<Expr> args;       // Add/Mul/Neg/Max children
  int line = 0, col = 0;        // source span anchor (the leading token)

  SourceSpan span() const {
    return SourceSpan{line, col, static_cast<int>(name.empty() ? 1
                                                               : name.size())};
  }
};

struct Assign {
  std::vector<Expr> targets;  // chained Cell targets
  Expr value;
  int line = 0;
};

struct ForLoop {
  std::string var;
  long from = 0;
  std::string bound_ident;  // loop bound: var < bound_ident + bound_offset
  long bound_offset = 0;
  bool inclusive = false;  // '<='
  std::vector<Assign> assigns;
  std::vector<ForLoop> loops;
  int line = 0;
};

struct Program {
  std::map<std::string, long> consts;
  // Order of declaration plus every identifier referenced inside a const
  // initializer (folded away at parse time otherwise) - the unused-constant
  // analysis (AA034) needs both.
  std::vector<std::string> const_order;
  std::vector<std::string> const_init_refs;
  std::map<std::string, SourceSpan> const_spans;
  std::vector<Assign> top_assigns;
  std::vector<ForLoop> loops;
};

// Parses with statement-level error recovery: a malformed statement is
// reported into `diags` and skipped (synchronizing on ';' / '}'), so one
// run surfaces every independent parse error. The returned Program holds
// everything that parsed cleanly.
Program parse(const std::string& source, DiagnosticEngine& diags);

}  // namespace aalign::codegen
