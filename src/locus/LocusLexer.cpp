//===- LocusLexer.cpp - Locus language lexer -----------------------------------===//

#include "src/locus/LocusLexer.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace locus {
namespace lang {

LocusLexer::LocusLexer(std::string Source) : Source(std::move(Source)) {}

char LocusLexer::peek(int Ahead) const {
  size_t P = Pos + static_cast<size_t>(Ahead);
  return P < Source.size() ? Source[P] : '\0';
}

char LocusLexer::advance() {
  char C = Source[Pos++];
  if (C == '\n')
    ++Line;
  return C;
}

void LocusLexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '#' || (C == '/' && peek(1) == '/')) {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      advance();
      advance();
      while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (!atEnd()) {
        advance();
        advance();
      }
      continue;
    }
    break;
  }
}

std::vector<LTok> LocusLexer::lexAll() {
  std::vector<LTok> Tokens;
  while (true) {
    LTok T = lexToken();
    bool IsEof = T.is(LTokKind::Eof);
    Tokens.push_back(std::move(T));
    if (IsEof)
      break;
  }
  return Tokens;
}

LTok LocusLexer::lexToken() {
  skipTrivia();
  LTok T;
  T.Line = Line;
  if (atEnd() || hadError())
    return T;

  char C = peek();

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Ident;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Ident += advance();
    T.Kind = LTokKind::Ident;
    T.Text = std::move(Ident);
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    std::string Num;
    bool IsFloat = false;
    while (!atEnd()) {
      char N = peek();
      if (std::isdigit(static_cast<unsigned char>(N))) {
        Num += advance();
      } else if (N == '.' && !IsFloat && peek(1) != '.') {
        // "2..32" must lex as 2 .. 32, so a '.' followed by '.' ends the
        // number.
        IsFloat = true;
        Num += advance();
      } else if ((N == 'e' || N == 'E') &&
                 (std::isdigit(static_cast<unsigned char>(peek(1))) ||
                  ((peek(1) == '+' || peek(1) == '-') &&
                   std::isdigit(static_cast<unsigned char>(peek(2)))))) {
        IsFloat = true;
        Num += advance();
        if (peek() == '+' || peek() == '-')
          Num += advance();
      } else {
        break;
      }
    }
    if (IsFloat) {
      T.Kind = LTokKind::FloatLit;
      T.FloatValue = std::strtod(Num.c_str(), nullptr);
    } else {
      T.Kind = LTokKind::IntLit;
      errno = 0;
      T.IntValue = std::strtoll(Num.c_str(), nullptr, 10);
      if (errno == ERANGE) // reported; lexing stops at the next token
        ErrorMessage = "line " + std::to_string(T.Line) +
                       ": integer literal out of range: " + Num;
    }
    T.Text = std::move(Num);
    return T;
  }

  if (C == '"') {
    advance();
    std::string Str;
    while (!atEnd() && peek() != '"') {
      char S = advance();
      if (S == '\\' && !atEnd()) {
        char E = advance();
        switch (E) {
        case 'n':
          S = '\n';
          break;
        case 't':
          S = '\t';
          break;
        default:
          S = E;
          break;
        }
      }
      Str += S;
    }
    if (atEnd()) {
      ErrorMessage = "line " + std::to_string(T.Line) + ": unterminated string";
      T.Kind = LTokKind::Eof;
      return T;
    }
    advance();
    T.Kind = LTokKind::StrLit;
    T.Text = std::move(Str);
    return T;
  }

  static const char *MultiOps[] = {"..", "**", "<=", ">=", "==",
                                   "!=", "&&", "||"};
  for (const char *Op : MultiOps) {
    if (C == Op[0] && peek(1) == Op[1]) {
      advance();
      advance();
      T.Kind = LTokKind::Punct;
      T.Text = Op;
      return T;
    }
  }

  static const std::string SingleChars = "()[]{};,<>=+-*/%.!";
  if (SingleChars.find(C) != std::string::npos) {
    advance();
    T.Kind = LTokKind::Punct;
    T.Text = std::string(1, C);
    return T;
  }

  ErrorMessage = "line " + std::to_string(Line) + ": unexpected character '" +
                 std::string(1, C) + "'";
  return T;
}

} // namespace lang
} // namespace locus
