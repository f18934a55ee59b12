#include "codegen/parser.h"

#include <string>
#include <utility>

namespace aalign::codegen {

namespace {

// Panic-mode unwinding: a parse rule throws the diagnostic it would report,
// and the nearest recovery point records it and resynchronizes.
struct ParseError {
  Diagnostic diag;
};

[[noreturn]] void fail(std::string message, int line, int col,
                       std::string code) {
  throw ParseError{Diagnostic{std::move(code), Severity::Error,
                              SourceSpan{line, col, 1}, std::move(message),
                              {}}};
}

class Parser {
 public:
  Parser(std::vector<Token> toks, DiagnosticEngine& diags)
      : toks_(std::move(toks)), diags_(diags) {}

  Program run() {
    Program p;
    while (peek().kind != Tok::End) {
      // Statement-level recovery: a malformed top-level item is reported
      // and skipped; the next item may hold an independent error.
      try {
        if (peek_ident("const")) {
          parse_const(p);
        } else if (peek_ident("for")) {
          p.loops.push_back(parse_for());
        } else {
          p.top_assigns.push_back(parse_assign());
        }
      } catch (const ParseError& e) {
        diags_.add(e.diag);
        synchronize(/*stop_at_rbrace=*/false);
      }
    }
    return p;
  }

 private:
  const Token& peek(int ahead = 0) const {
    const std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool peek_ident(const char* text, int ahead = 0) const {
    return peek(ahead).kind == Tok::Ident && peek(ahead).text == text;
  }
  const Token& next() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  const Token& expect(Tok kind, const char* what) {
    if (peek().kind != kind) {
      fail(std::string("expected ") + tok_name(kind) + " while parsing " +
               what + ", found " + tok_name(peek().kind),
           peek().line, peek().col, "AA002");
    }
    return next();
  }
  std::string expect_ident(const char* what) {
    return expect(Tok::Ident, what).text;
  }

  // Panic-mode synchronization: skip to just after the next ';' (or up to
  // a closing '}' when recovering inside a block, so the block loop can
  // close it). Guarantees progress - expect() throws without consuming.
  void synchronize(bool stop_at_rbrace) {
    while (peek().kind != Tok::End) {
      if (peek().kind == Tok::Semi) {
        next();
        return;
      }
      if (peek().kind == Tok::RBrace) {
        if (stop_at_rbrace) return;
        next();
        return;
      }
      next();
    }
  }

  void parse_const(Program& p) {
    next();  // const
    if (!peek_ident("int")) {
      fail("expected 'int' after 'const'", peek().line, peek().col, "AA003");
    }
    next();
    const Token& name_tok = expect(Tok::Ident, "const declaration");
    const std::string name = name_tok.text;
    const SourceSpan span{name_tok.line, name_tok.col,
                          static_cast<int>(name.size())};
    expect(Tok::Assign, "const declaration");
    const long value = parse_const_value(p);
    expect(Tok::Semi, "const declaration");
    p.consts[name] = value;
    p.const_order.push_back(name);
    p.const_spans[name] = span;
  }

  long parse_const_value(Program& p) {
    long sign = 1;
    while (peek().kind == Tok::Minus) {
      next();
      sign = -sign;
    }
    if (peek().kind == Tok::Number) return sign * next().value;
    if (peek().kind == Tok::Ident) {
      const Token& t = next();
      p.const_init_refs.push_back(t.text);
      auto it = p.consts.find(t.text);
      if (it == p.consts.end()) {
        fail("unknown constant '" + t.text + "'", t.line, t.col, "AA004");
      }
      return sign * it->second;
    }
    fail("expected constant value", peek().line, peek().col, "AA005");
  }

  ForLoop parse_for() {
    ForLoop f;
    f.line = peek().line;
    next();  // for
    expect(Tok::LParen, "for loop");
    f.var = expect_ident("for-loop init");
    expect(Tok::Assign, "for-loop init");
    long sign = 1;
    if (peek().kind == Tok::Minus) {
      next();
      sign = -1;
    }
    f.from = sign * expect(Tok::Number, "for-loop init").value;
    expect(Tok::Semi, "for loop");

    const std::string cond_var = expect_ident("for-loop condition");
    if (cond_var != f.var) {
      fail("for-loop condition must test '" + f.var + "'", peek().line,
           peek().col, "AA006");
    }
    if (peek().kind == Tok::LessEq) {
      f.inclusive = true;
      next();
    } else {
      expect(Tok::Less, "for-loop condition");
    }
    if (peek().kind == Tok::Ident) {
      f.bound_ident = next().text;
      if (peek().kind == Tok::Plus) {
        next();
        f.bound_offset = expect(Tok::Number, "for-loop bound").value;
      } else if (peek().kind == Tok::Minus) {
        next();
        f.bound_offset = -expect(Tok::Number, "for-loop bound").value;
      }
    } else {
      f.bound_offset = expect(Tok::Number, "for-loop bound").value;
    }
    expect(Tok::Semi, "for loop");
    const std::string inc_var = expect_ident("for-loop increment");
    if (inc_var != f.var) {
      fail("for-loop increment must be '" + f.var + "++'", peek().line,
           peek().col, "AA007");
    }
    expect(Tok::PlusPlus, "for-loop increment");
    expect(Tok::RParen, "for loop");

    parse_stmt_into(f);
    return f;
  }

  void parse_stmt_into(ForLoop& f) {
    if (peek().kind == Tok::LBrace) {
      next();
      while (peek().kind != Tok::RBrace) {
        if (peek().kind == Tok::End) {
          fail("unterminated '{'", peek().line, peek().col, "AA008");
        }
        // Per-statement recovery inside a block: keep scanning the block
        // for further independent errors.
        try {
          parse_one_stmt(f);
        } catch (const ParseError& e) {
          diags_.add(e.diag);
          synchronize(/*stop_at_rbrace=*/true);
        }
      }
      next();
    } else {
      parse_one_stmt(f);
    }
  }

  void parse_one_stmt(ForLoop& f) {
    if (peek_ident("for")) {
      f.loops.push_back(parse_for());
    } else {
      f.assigns.push_back(parse_assign());
    }
  }

  Assign parse_assign() {
    Assign a;
    a.line = peek().line;
    a.targets.push_back(parse_cell());
    expect(Tok::Assign, "assignment");
    // Chained targets: T[0][i] = U[0][i] = 0;
    while (true) {
      const std::size_t save = pos_;
      if (peek().kind == Tok::Ident && peek(1).kind == Tok::LBracket) {
        try {
          Expr cell = parse_cell();
          if (peek().kind == Tok::Assign) {
            next();
            a.targets.push_back(std::move(cell));
            continue;
          }
        } catch (const ParseError&) {
          // fall through to expression parse
        }
        pos_ = save;
      }
      break;
    }
    a.value = parse_expr();
    expect(Tok::Semi, "assignment");
    return a;
  }

  Expr parse_expr() {
    if (peek_ident("max")) return parse_max();
    return parse_add();
  }

  Expr parse_max() {
    Expr e;
    e.kind = Expr::Kind::Max;
    e.line = peek().line;
    e.col = peek().col;
    next();  // max
    expect(Tok::LParen, "max()");
    e.args.push_back(parse_expr());
    while (peek().kind == Tok::Comma) {
      next();
      e.args.push_back(parse_expr());
    }
    expect(Tok::RParen, "max()");
    return e;
  }

  Expr parse_add() {
    Expr lhs = parse_term();
    while (peek().kind == Tok::Plus || peek().kind == Tok::Minus) {
      const bool minus = next().kind == Tok::Minus;
      Expr rhs = parse_term();
      if (minus) {
        Expr neg;
        neg.kind = Expr::Kind::Neg;
        neg.line = rhs.line;
        neg.col = rhs.col;
        neg.args.push_back(std::move(rhs));
        rhs = std::move(neg);
      }
      if (lhs.kind == Expr::Kind::Add) {
        lhs.args.push_back(std::move(rhs));
      } else {
        Expr add;
        add.kind = Expr::Kind::Add;
        add.line = lhs.line;
        add.col = lhs.col;
        add.args.push_back(std::move(lhs));
        add.args.push_back(std::move(rhs));
        lhs = std::move(add);
      }
    }
    return lhs;
  }

  Expr parse_term() {
    Expr lhs = parse_factor();
    while (peek().kind == Tok::Star) {
      next();
      Expr rhs = parse_factor();
      Expr mul;
      mul.kind = Expr::Kind::Mul;
      mul.line = lhs.line;
      mul.col = lhs.col;
      mul.args.push_back(std::move(lhs));
      mul.args.push_back(std::move(rhs));
      lhs = std::move(mul);
    }
    return lhs;
  }

  Expr parse_factor() {
    if (peek().kind == Tok::Minus) {
      next();
      Expr neg;
      neg.kind = Expr::Kind::Neg;
      neg.line = peek().line;
      neg.col = peek().col;
      neg.args.push_back(parse_factor());
      return neg;
    }
    if (peek().kind == Tok::Number) {
      Expr e;
      e.kind = Expr::Kind::Number;
      e.line = peek().line;
      e.col = peek().col;
      e.number = next().value;
      return e;
    }
    if (peek().kind == Tok::Ident) {
      if (peek_ident("max")) return parse_max();
      if (peek(1).kind == Tok::LBracket) return parse_cell();
      Expr e;
      e.kind = Expr::Kind::ConstRef;
      e.line = peek().line;
      e.col = peek().col;
      e.name = next().text;
      return e;
    }
    if (peek().kind == Tok::LParen) {
      next();
      Expr e = parse_expr();
      expect(Tok::RParen, "parenthesized expression");
      return e;
    }
    fail("expected expression", peek().line, peek().col, "AA011");
  }

  Expr parse_cell() {
    Expr e;
    e.kind = Expr::Kind::Cell;
    e.line = peek().line;
    e.col = peek().col;
    e.name = expect_ident("table reference");
    expect(Tok::LBracket, "subscript");
    e.index.push_back(parse_index());
    expect(Tok::RBracket, "subscript");
    while (peek().kind == Tok::LBracket) {
      next();
      e.index.push_back(parse_index());
      expect(Tok::RBracket, "subscript");
    }
    return e;
  }

  IndexRef parse_index() {
    IndexRef ix;
    // ctoi(Q[i-1]) style wrapped lookup.
    if (peek_ident("ctoi")) {
      next();
      expect(Tok::LParen, "ctoi()");
      ix.seq = expect_ident("ctoi() sequence");
      expect(Tok::LBracket, "ctoi() subscript");
      const IndexRef inner = parse_index();
      ix.var = inner.var;
      ix.off = inner.off;
      expect(Tok::RBracket, "ctoi() subscript");
      expect(Tok::RParen, "ctoi()");
      return ix;
    }
    // var [+/- const] | const
    bool saw_any = false;
    while (true) {
      if (peek().kind == Tok::Ident && ix.var.empty()) {
        ix.var = next().text;
        saw_any = true;
      } else if (peek().kind == Tok::Number) {
        ix.off += next().value;
        saw_any = true;
      } else if (peek().kind == Tok::Plus) {
        next();
        continue;
      } else if (peek().kind == Tok::Minus) {
        next();
        if (peek().kind != Tok::Number) {
          fail("expected number after '-' in subscript", peek().line,
               peek().col, "AA009");
        }
        ix.off -= next().value;
        saw_any = true;
      } else {
        break;
      }
      if (peek().kind != Tok::Plus && peek().kind != Tok::Minus) break;
    }
    if (!saw_any) {
      fail("empty subscript", peek().line, peek().col, "AA010");
    }
    return ix;
  }

  std::vector<Token> toks_;
  DiagnosticEngine& diags_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse(const std::string& source, DiagnosticEngine& diags) {
  return Parser(lex(source, diags), diags).run();
}

}  // namespace aalign::codegen
