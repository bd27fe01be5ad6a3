//===- Lexer.cpp - MiniC lexer --------------------------------------------===//

#include "src/cir/Lexer.h"

#include "src/support/StringUtils.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace locus {
namespace cir {

Lexer::Lexer(std::string Source) : Source(std::move(Source)) {}

char Lexer::peek(int Ahead) const {
  size_t P = Pos + static_cast<size_t>(Ahead);
  return P < Source.size() ? Source[P] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    LineStartPos = Pos;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
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

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  while (true) {
    Token T = lexToken();
    bool IsEof = T.is(TokKind::Eof);
    Tokens.push_back(std::move(T));
    if (IsEof)
      break;
  }
  return Tokens;
}

Token Lexer::lexToken() {
  skipTrivia();
  Token T;
  T.Line = Line;
  T.Col = static_cast<int>(Pos - LineStartPos) + 1;
  if (atEnd() || hadError())
    return T;

  char C = peek();

  // Preprocessor lines: #define handled here, #pragma becomes a token.
  if (C == '#') {
    size_t LineStart = Pos;
    while (!atEnd() && peek() != '\n')
      advance();
    std::string LineText(Source.substr(LineStart, Pos - LineStart));
    std::string_view Body = trimString(LineText);
    if (startsWith(Body, "#pragma")) {
      T.Kind = TokKind::Pragma;
      T.Text = std::string(trimString(Body.substr(7)));
      return T;
    }
    if (startsWith(Body, "#define")) {
      std::string_view Rest = trimString(Body.substr(7));
      size_t Space = Rest.find_first_of(" \t");
      if (Space != std::string_view::npos) {
        std::string Name(trimString(Rest.substr(0, Space)));
        std::string Value(trimString(Rest.substr(Space)));
        char *End = nullptr;
        errno = 0;
        long long V = std::strtoll(Value.c_str(), &End, 10);
        if (End && *End == '\0') {
          if (errno == ERANGE) // reported; lexing stops at the next token
            ErrorMessage = "line " + std::to_string(T.Line) +
                           ": integer literal out of range: " + Value;
          Defines[Name] = V;
        }
      }
      return lexToken(); // skip the define line itself
    }
    if (startsWith(Body, "#include"))
      return lexToken(); // includes are ignored; intrinsics are built in
    ErrorMessage = "line " + std::to_string(T.Line) +
                   ": unsupported preprocessor directive: " + LineText;
    return T;
  }

  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Ident;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Ident += advance();
    // Macro substitution for integer #defines.
    auto It = Defines.find(Ident);
    if (It != Defines.end()) {
      T.Kind = TokKind::IntLit;
      T.IntValue = It->second;
      T.Text = std::to_string(It->second);
      return T;
    }
    T.Kind = TokKind::Ident;
    T.Text = std::move(Ident);
    return T;
  }

  if (std::isdigit(static_cast<unsigned char>(C)) ||
      (C == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
    std::string Num;
    bool IsFloat = false;
    while (!atEnd()) {
      char N = peek();
      if (std::isdigit(static_cast<unsigned char>(N))) {
        Num += advance();
      } else if (N == '.' && !IsFloat) {
        IsFloat = true;
        Num += advance();
      } else if ((N == 'e' || N == 'E') &&
                 (std::isdigit(static_cast<unsigned char>(peek(1))) ||
                  ((peek(1) == '+' || peek(1) == '-') &&
                   std::isdigit(static_cast<unsigned char>(peek(2)))))) {
        IsFloat = true;
        Num += advance(); // e
        if (peek() == '+' || peek() == '-')
          Num += advance();
      } else {
        break;
      }
    }
    // Trailing float suffixes.
    if (peek() == 'f' || peek() == 'F' || peek() == 'l' || peek() == 'L')
      advance();
    if (IsFloat) {
      T.Kind = TokKind::FloatLit;
      T.FloatValue = std::strtod(Num.c_str(), nullptr);
    } else {
      T.Kind = TokKind::IntLit;
      errno = 0;
      T.IntValue = std::strtoll(Num.c_str(), nullptr, 10);
      if (errno == ERANGE)
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
      if (S == '\\' && !atEnd())
        S = advance();
      Str += S;
    }
    if (atEnd()) {
      ErrorMessage =
          "line " + std::to_string(T.Line) + ": unterminated string literal";
      return T;
    }
    advance(); // closing quote
    T.Kind = TokKind::StrLit;
    T.Text = std::move(Str);
    return T;
  }

  // Multi-character operators first.
  static const char *TwoCharOps[] = {"<=", ">=", "==", "!=", "&&", "||",
                                     "+=", "-=", "*=", "/=", "++", "--"};
  for (const char *Op : TwoCharOps) {
    if (C == Op[0] && peek(1) == Op[1]) {
      advance();
      advance();
      T.Kind = TokKind::Punct;
      T.Text = Op;
      return T;
    }
  }

  static const std::string SingleChars = "()[]{};,<>=+-*/%!&.?:";
  if (SingleChars.find(C) != std::string::npos) {
    advance();
    T.Kind = TokKind::Punct;
    T.Text = std::string(1, C);
    return T;
  }

  ErrorMessage = "line " + std::to_string(Line) +
                 ": unexpected character '" + std::string(1, C) + "'";
  return T;
}

} // namespace cir
} // namespace locus
