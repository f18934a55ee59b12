#include "codegen/lexer.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <utility>

namespace aalign::codegen {

const char* tok_name(Tok t) {
  switch (t) {
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Semi: return "';'";
    case Tok::Comma: return "','";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Less: return "'<'";
    case Tok::LessEq: return "'<='";
    case Tok::PlusPlus: return "'++'";
    case Tok::End: return "end of input";
  }
  return "?";
}

std::vector<Token> lex(const std::string& source, DiagnosticEngine& diags) {
  std::vector<Token> out;
  int line = 1, col = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto advance = [&](std::size_t count) {
    for (std::size_t t = 0; t < count; ++t) {
      if (source[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  auto push = [&](Tok k, std::string text = "", long v = 0) {
    out.push_back(Token{k, std::move(text), v, line, col});
  };

  while (i < n) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    // Comments: // ... and /* ... */
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      advance(2);
      while (i + 1 < n && !(source[i] == '*' && source[i + 1] == '/'))
        advance(1);
      advance(i + 1 < n ? 2 : 1);
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_'))
        ++j;
      push(Tok::Ident, source.substr(i, j - i));
      advance(j - i);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      // Accumulation stops once the value passes kMaxLiteral, so it never
      // overflows however many digits follow.
      std::size_t j = i;
      long v = 0;
      bool in_range = true;
      while (j < n && std::isdigit(static_cast<unsigned char>(source[j]))) {
        if (in_range) {
          v = v * 10 + (source[j] - '0');
          in_range = v <= kMaxLiteral;
        }
        ++j;
      }
      if (!in_range) {
        // The span and the quoted digits are capped: a literal may be
        // arbitrarily long.
        const std::size_t digits = j - i;
        std::string message = "integer literal ";
        message.append(source, i, std::min<std::size_t>(digits, 24));
        if (digits > 24) message += "...";
        message += " is out of range (at most ";
        message += std::to_string(kMaxLiteral);
        message += ')';
        diags.error("AA012",
                    SourceSpan{line, col,
                               static_cast<int>(std::min<std::size_t>(
                                   digits, 64))},
                    std::move(message));
        v = kMaxLiteral;
      }
      push(Tok::Number, source.substr(i, j - i), v);
      advance(j - i);
      continue;
    }
    switch (c) {
      case '(': push(Tok::LParen); advance(1); break;
      case ')': push(Tok::RParen); advance(1); break;
      case '[': push(Tok::LBracket); advance(1); break;
      case ']': push(Tok::RBracket); advance(1); break;
      case '{': push(Tok::LBrace); advance(1); break;
      case '}': push(Tok::RBrace); advance(1); break;
      case ';': push(Tok::Semi); advance(1); break;
      case ',': push(Tok::Comma); advance(1); break;
      case '*': push(Tok::Star); advance(1); break;
      case '=':
        push(Tok::Assign);
        advance(1);
        break;
      case '+':
        if (i + 1 < n && source[i + 1] == '+') {
          push(Tok::PlusPlus);
          advance(2);
        } else {
          push(Tok::Plus);
          advance(1);
        }
        break;
      case '-':
        push(Tok::Minus);
        advance(1);
        break;
      case '<':
        if (i + 1 < n && source[i + 1] == '=') {
          push(Tok::LessEq);
          advance(2);
        } else {
          push(Tok::Less);
          advance(1);
        }
        break;
      default:
        // Report and skip: later characters may hold independent errors.
        diags.error("AA001", SourceSpan{line, col, 1},
                    "unexpected character '" + std::string(1, c) + "'");
        advance(1);
        break;
    }
  }
  out.push_back(Token{Tok::End, "", 0, line, col});
  return out;
}

}  // namespace aalign::codegen
