//===- Parser.cpp - MiniC parser ------------------------------------------===//

#include "src/cir/Parser.h"

#include "src/cir/AstUtils.h"
#include "src/support/StringUtils.h"

#include <cassert>
#include <optional>

namespace locus {
namespace cir {

using detail::Parser;

Expected<std::unique_ptr<Program>> parseProgram(const std::string &Source) {
  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Lex.hadError())
    return Expected<std::unique_ptr<Program>>::error(Lex.error());
  Parser P(std::move(Tokens), Lex.defines());
  return P.parseProgramTokens();
}

Expected<std::vector<StmtPtr>> parseStatements(const std::string &Source) {
  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Lex.hadError())
    return Expected<std::vector<StmtPtr>>::error(Lex.error());
  Parser P(std::move(Tokens), Lex.defines());
  return P.parseStatementList();
}

namespace detail {

const Token &Parser::peek(int Ahead) const {
  size_t P = Pos + static_cast<size_t>(Ahead);
  if (P >= Tokens.size())
    P = Tokens.size() - 1; // Eof token
  return Tokens[P];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::matchPunct(const char *P) {
  if (peek().isPunct(P)) {
    advance();
    return true;
  }
  return false;
}

bool Parser::expectPunct(const char *P) {
  if (matchPunct(P))
    return true;
  fail(std::string("expected '") + P + "' but found '" + peek().Text + "'");
  return false;
}

void Parser::fail(const std::string &Message) {
  if (ErrorMessage.empty())
    ErrorMessage =
        "line " + std::to_string(peek().Line) + ": " + Message;
  // Drive the parser to Eof so callers unwind quickly.
  Pos = Tokens.size() - 1;
}

static bool isTypeKeyword(const Token &T) {
  return T.isIdent("int") || T.isIdent("double") || T.isIdent("float") ||
         T.isIdent("const") || T.isIdent("static") || T.isIdent("unsigned") ||
         T.isIdent("long");
}

void Parser::collectPragmas() {
  while (peek().is(TokKind::Pragma)) {
    std::string Text = advance().Text;
    std::string_view Body = trimString(Text);
    if (startsWith(Body, "@Locus")) {
      std::string_view Spec = trimString(Body.substr(6));
      if (startsWith(Spec, "loop=")) {
        PendingLoopRegion = std::string(trimString(Spec.substr(5)));
        PendingRegionSplit = PendingPragmas.size();
      } else if (startsWith(Spec, "block=")) {
        PendingBlockRegion = std::string(trimString(Spec.substr(6)));
        PendingRegionSplit = PendingPragmas.size();
      } else if (Spec == "endblock") {
        fail("@Locus endblock without a matching block annotation");
      } else {
        fail("malformed @Locus pragma: " + Text);
      }
      continue;
    }
    PendingPragmas.push_back(Text);
  }
}

Expected<std::unique_ptr<Program>> Parser::parseProgramTokens() {
  Prog = std::make_unique<Program>();

  while (!peek().is(TokKind::Eof) && ErrorMessage.empty()) {
    collectPragmas();
    if (peek().is(TokKind::Eof))
      break;

    // Function definition or prototype: type ident '(' ...
    if (isTypeKeyword(peek()) && peek(1).is(TokKind::Ident) &&
        peek(2).isPunct("(")) {
      std::string Name = peek(1).Text;
      advance(); // type
      advance(); // name
      advance(); // '('
      // Skip the parameter list.
      int Depth = 1;
      while (Depth > 0 && !peek().is(TokKind::Eof)) {
        if (peek().isPunct("("))
          ++Depth;
        else if (peek().isPunct(")"))
          --Depth;
        advance();
      }
      if (matchPunct(";"))
        continue; // prototype: ignore
      if (!peek().isPunct("{")) {
        fail("expected function body for " + Name);
        break;
      }
      std::unique_ptr<Block> Body = parseBlock();
      if (!Body)
        break;
      if (Name == "main") {
        Prog->Body = std::move(Body);
      }
      // Non-main function bodies are parsed for syntax but dropped; the
      // workloads only call harness intrinsics.
      continue;
    }

    if (isTypeKeyword(peek())) {
      StmtPtr D = parseDecl(/*IsGlobal=*/true);
      if (!D)
        break;
      Prog->Globals.push_back(std::unique_ptr<DeclStmt>(
          cast<DeclStmt>(D.release())));
      continue;
    }

    // Top-level statement (kernel-file format without a main wrapper).
    StmtPtr S = parseStmt();
    if (!S)
      break;
    Prog->Body->Stmts.push_back(std::move(S));
  }

  if (!ErrorMessage.empty())
    return Expected<std::unique_ptr<Program>>::error(ErrorMessage);
  if (!PendingBlockRegion.empty())
    return Expected<std::unique_ptr<Program>>::error(
        "unterminated @Locus block region: " + PendingBlockRegion);
  return std::move(Prog);
}

Expected<std::vector<StmtPtr>> Parser::parseStatementList() {
  Prog = std::make_unique<Program>();
  std::vector<StmtPtr> Stmts;
  while (!peek().is(TokKind::Eof) && ErrorMessage.empty()) {
    collectPragmas();
    if (peek().is(TokKind::Eof))
      break;
    StmtPtr S = parseStmt();
    if (!S)
      break;
    Stmts.push_back(std::move(S));
  }
  if (!ErrorMessage.empty())
    return Expected<std::vector<StmtPtr>>::error(ErrorMessage);
  return Expected<std::vector<StmtPtr>>(std::move(Stmts));
}

std::unique_ptr<Block> Parser::parseBlock() {
  support::SrcLoc StartLoc{peek().Line, peek().Col};
  if (!expectPunct("{"))
    return nullptr;
  auto B = std::make_unique<Block>();
  B->Loc = StartLoc;
  while (!peek().isPunct("}") && !peek().is(TokKind::Eof) &&
         ErrorMessage.empty()) {
    StmtPtr S = parseStmt();
    if (!S)
      return nullptr;
    B->Stmts.push_back(std::move(S));
  }
  if (!expectPunct("}"))
    return nullptr;
  return B;
}

StmtPtr Parser::parseStmt() {
  collectPragmas();
  support::SrcLoc StartLoc{peek().Line, peek().Col};

  // Region wrapping: "#pragma @Locus block=NAME" wraps statements until the
  // matching endblock pragma into one named Block.
  if (!PendingBlockRegion.empty()) {
    std::string Name = PendingBlockRegion;
    PendingBlockRegion.clear();
    auto Region = std::make_unique<Block>();
    Region->Loc = StartLoc;
    Region->RegionName = Name;
    // Pragmas seen before the marker annotate the region; later ones stay
    // pending for the first wrapped statement.
    size_t Split = std::min(PendingRegionSplit, PendingPragmas.size());
    Region->Pragmas.assign(PendingPragmas.begin(),
                           PendingPragmas.begin() + Split);
    PendingPragmas.erase(PendingPragmas.begin(), PendingPragmas.begin() + Split);
    while (ErrorMessage.empty()) {
      // endblock is detected here rather than in collectPragmas.
      if (peek().is(TokKind::Pragma)) {
        std::string_view Body = trimString(peek().Text);
        if (startsWith(Body, "@Locus") &&
            trimString(Body.substr(6)) == "endblock") {
          advance();
          return Region;
        }
      }
      if (peek().is(TokKind::Eof)) {
        fail("unterminated @Locus block region: " + Name);
        return nullptr;
      }
      StmtPtr S = parseStmt();
      if (!S)
        return nullptr;
      Region->Stmts.push_back(std::move(S));
    }
    return nullptr;
  }

  if (!PendingLoopRegion.empty()) {
    std::string Name = PendingLoopRegion;
    PendingLoopRegion.clear();
    // Pragmas seen before the marker annotate the region block; later ones
    // (e.g. "omp parallel for" between the marker and its loop) stay
    // pending and bind to the for statement itself, matching where the
    // printer emits a transformed loop's pragmas.
    size_t Split = std::min(PendingRegionSplit, PendingPragmas.size());
    std::vector<std::string> RegionPragmas(PendingPragmas.begin(),
                                           PendingPragmas.begin() + Split);
    PendingPragmas.erase(PendingPragmas.begin(), PendingPragmas.begin() + Split);
    if (!peek().isIdent("for")) {
      fail("@Locus loop annotation must precede a for loop");
      return nullptr;
    }
    StmtPtr Loop = parseStmt();
    if (!Loop)
      return nullptr;
    auto Region = std::make_unique<Block>();
    Region->Loc = StartLoc;
    Region->RegionName = Name;
    Region->Pragmas = std::move(RegionPragmas);
    Region->Stmts.push_back(std::move(Loop));
    return Region;
  }

  std::vector<std::string> Pragmas = std::move(PendingPragmas);
  PendingPragmas.clear();

  StmtPtr S;
  if (peek().isIdent("for"))
    S = parseFor();
  else if (peek().isIdent("if"))
    S = parseIf();
  else if (peek().isPunct("{"))
    S = parseBlock();
  else if (isTypeKeyword(peek()))
    S = parseDecl(/*IsGlobal=*/false);
  else if (peek().isIdent("return")) {
    // return <expr>; is a harness artifact; parse and drop.
    advance();
    if (!peek().isPunct(";"))
      parseExpr();
    expectPunct(";");
    auto Empty = std::make_unique<Block>();
    S = std::move(Empty);
  } else
    S = parseSimpleStmt();

  if (S && !Pragmas.empty())
    S->Pragmas.insert(S->Pragmas.begin(), Pragmas.begin(), Pragmas.end());
  if (S && !S->Loc.valid())
    S->Loc = StartLoc;
  return S;
}

StmtPtr Parser::parseFor() {
  advance(); // for
  if (!expectPunct("("))
    return nullptr;

  // Init: [int] var = expr
  StmtPtr HoistedDecl;
  if (peek().isIdent("int"))
    advance();
  if (!peek().is(TokKind::Ident)) {
    fail("expected induction variable in for initializer");
    return nullptr;
  }
  std::string Var = advance().Text;
  if (!expectPunct("="))
    return nullptr;
  ExprPtr Init = parseExpr();
  if (!Init || !expectPunct(";"))
    return nullptr;

  // Condition: var (< | <=) expr
  if (!peek().isIdent(Var.c_str())) {
    fail("for condition must test the induction variable '" + Var + "'");
    return nullptr;
  }
  advance();
  BoundOp Op;
  if (matchPunct("<"))
    Op = BoundOp::Lt;
  else if (matchPunct("<="))
    Op = BoundOp::Le;
  else {
    fail("for condition must use < or <=");
    return nullptr;
  }
  ExprPtr Bound = parseExpr();
  if (!Bound || !expectPunct(";"))
    return nullptr;

  // Increment: var++ | ++var | var += c
  int64_t Step = 1;
  if (matchPunct("++")) {
    if (!peek().isIdent(Var.c_str())) {
      fail("for increment must update the induction variable");
      return nullptr;
    }
    advance();
  } else {
    if (!peek().isIdent(Var.c_str())) {
      fail("for increment must update the induction variable");
      return nullptr;
    }
    advance();
    if (matchPunct("++")) {
      Step = 1;
    } else if (matchPunct("+=")) {
      ExprPtr StepE = parseExpr();
      if (!StepE)
        return nullptr;
      std::optional<int64_t> C = evalConstInt(*StepE, &ConstInts);
      if (!C) {
        fail("for step must be an integer constant");
        return nullptr;
      }
      Step = *C;
    } else {
      fail("unsupported for increment");
      return nullptr;
    }
  }
  if (!expectPunct(")"))
    return nullptr;

  std::unique_ptr<Block> Body;
  if (peek().isPunct("{")) {
    Body = parseBlock();
  } else {
    StmtPtr Single = parseStmt();
    if (!Single)
      return nullptr;
    Body = std::make_unique<Block>();
    Body->Stmts.push_back(std::move(Single));
  }
  if (!Body)
    return nullptr;

  return std::make_unique<ForStmt>(Var, std::move(Init), Op, std::move(Bound),
                                   Step, std::move(Body));
}

StmtPtr Parser::parseIf() {
  advance(); // if
  if (!expectPunct("("))
    return nullptr;
  ExprPtr Cond = parseExpr();
  if (!Cond || !expectPunct(")"))
    return nullptr;

  std::unique_ptr<Block> Then;
  if (peek().isPunct("{")) {
    Then = parseBlock();
  } else {
    StmtPtr Single = parseStmt();
    if (!Single)
      return nullptr;
    Then = std::make_unique<Block>();
    Then->Stmts.push_back(std::move(Single));
  }
  if (!Then)
    return nullptr;

  std::unique_ptr<Block> Else;
  if (peek().isIdent("else")) {
    advance();
    if (peek().isPunct("{")) {
      Else = parseBlock();
    } else {
      StmtPtr Single = parseStmt();
      if (!Single)
        return nullptr;
      Else = std::make_unique<Block>();
      Else->Stmts.push_back(std::move(Single));
    }
    if (!Else)
      return nullptr;
  }
  return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                  std::move(Else));
}

StmtPtr Parser::parseDecl(bool IsGlobal) {
  bool IsConst = false;
  ElemType Elem = ElemType::Int;
  bool SawBaseType = false;
  while (isTypeKeyword(peek())) {
    if (peek().isIdent("const"))
      IsConst = true;
    else if (peek().isIdent("double") || peek().isIdent("float")) {
      Elem = ElemType::Double;
      SawBaseType = true;
    } else if (peek().isIdent("int") || peek().isIdent("long") ||
               peek().isIdent("unsigned")) {
      Elem = ElemType::Int;
      SawBaseType = true;
    }
    advance();
  }
  if (!SawBaseType) {
    fail("expected a base type in declaration");
    return nullptr;
  }

  // Parse one or more declarators; return a Block when several are declared
  // in one statement ("int i, j, k;").
  std::vector<StmtPtr> Decls;
  while (true) {
    if (!peek().is(TokKind::Ident)) {
      fail("expected declarator name");
      return nullptr;
    }
    std::string Name = advance().Text;
    std::vector<int64_t> Dims;
    while (matchPunct("[")) {
      ExprPtr DimE = parseExpr();
      if (!DimE)
        return nullptr;
      std::optional<int64_t> Dim = evalConstInt(*DimE, &ConstInts);
      if (!Dim) {
        fail("array dimension of '" + Name + "' is not an integer constant");
        return nullptr;
      }
      Dims.push_back(*Dim);
      if (!expectPunct("]"))
        return nullptr;
    }
    ExprPtr Init;
    if (matchPunct("=")) {
      Init = parseExpr();
      if (!Init)
        return nullptr;
      if ((IsConst || IsGlobal) && Dims.empty() && Elem == ElemType::Int) {
        if (std::optional<int64_t> C = evalConstInt(*Init, &ConstInts))
          ConstInts[Name] = *C;
      }
    }
    Decls.push_back(
        std::make_unique<DeclStmt>(Elem, Name, std::move(Dims), std::move(Init)));
    if (!matchPunct(","))
      break;
  }
  if (!expectPunct(";"))
    return nullptr;

  if (Decls.size() == 1)
    return std::move(Decls.front());
  if (IsGlobal) {
    fail("multiple global declarators per statement are not supported");
    return nullptr;
  }
  auto Group = std::make_unique<Block>();
  Group->Stmts = std::move(Decls);
  return Group;
}

StmtPtr Parser::parseSimpleStmt() {
  ExprPtr Lhs = parseExpr();
  if (!Lhs)
    return nullptr;

  if (peek().isPunct(";") && isa<CallExpr>(Lhs.get())) {
    advance();
    return std::make_unique<CallStmt>(std::move(Lhs));
  }

  AssignOp Op;
  if (matchPunct("="))
    Op = AssignOp::Set;
  else if (matchPunct("+="))
    Op = AssignOp::Add;
  else if (matchPunct("-="))
    Op = AssignOp::Sub;
  else if (matchPunct("*="))
    Op = AssignOp::Mul;
  else {
    fail("expected assignment or call statement");
    return nullptr;
  }

  if (!isa<VarRef>(Lhs.get()) && !isa<ArrayRef>(Lhs.get())) {
    fail("assignment target must be a variable or array element");
    return nullptr;
  }

  ExprPtr Rhs = parseExpr();
  if (!Rhs || !expectPunct(";"))
    return nullptr;
  return std::make_unique<AssignStmt>(std::move(Lhs), Op, std::move(Rhs));
}

ExprPtr Parser::parseExpr() { return parseOr(); }

ExprPtr Parser::parseOr() {
  ExprPtr E = parseAnd();
  while (E && peek().isPunct("||")) {
    advance();
    ExprPtr R = parseAnd();
    if (!R)
      return nullptr;
    E = makeBin(BinOp::Or, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseAnd() {
  ExprPtr E = parseEquality();
  while (E && peek().isPunct("&&")) {
    advance();
    ExprPtr R = parseEquality();
    if (!R)
      return nullptr;
    E = makeBin(BinOp::And, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseEquality() {
  ExprPtr E = parseRelational();
  while (E && (peek().isPunct("==") || peek().isPunct("!="))) {
    BinOp Op = peek().isPunct("==") ? BinOp::Eq : BinOp::Ne;
    advance();
    ExprPtr R = parseRelational();
    if (!R)
      return nullptr;
    E = makeBin(Op, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseRelational() {
  ExprPtr E = parseAdditive();
  while (E && (peek().isPunct("<") || peek().isPunct("<=") ||
               peek().isPunct(">") || peek().isPunct(">="))) {
    BinOp Op;
    if (peek().isPunct("<"))
      Op = BinOp::Lt;
    else if (peek().isPunct("<="))
      Op = BinOp::Le;
    else if (peek().isPunct(">"))
      Op = BinOp::Gt;
    else
      Op = BinOp::Ge;
    advance();
    ExprPtr R = parseAdditive();
    if (!R)
      return nullptr;
    E = makeBin(Op, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseAdditive() {
  ExprPtr E = parseMultiplicative();
  while (E && (peek().isPunct("+") || peek().isPunct("-"))) {
    BinOp Op = peek().isPunct("+") ? BinOp::Add : BinOp::Sub;
    advance();
    ExprPtr R = parseMultiplicative();
    if (!R)
      return nullptr;
    E = makeBin(Op, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseMultiplicative() {
  ExprPtr E = parseUnary();
  while (E && (peek().isPunct("*") || peek().isPunct("/") ||
               peek().isPunct("%"))) {
    BinOp Op;
    if (peek().isPunct("*"))
      Op = BinOp::Mul;
    else if (peek().isPunct("/"))
      Op = BinOp::Div;
    else
      Op = BinOp::Mod;
    advance();
    ExprPtr R = parseUnary();
    if (!R)
      return nullptr;
    E = makeBin(Op, std::move(E), std::move(R));
  }
  return E;
}

ExprPtr Parser::parseUnary() {
  if (matchPunct("-")) {
    ExprPtr E = parseUnary();
    if (!E)
      return nullptr;
    return std::make_unique<UnaryExpr>(UnOp::Neg, std::move(E));
  }
  if (matchPunct("!")) {
    ExprPtr E = parseUnary();
    if (!E)
      return nullptr;
    return std::make_unique<UnaryExpr>(UnOp::Not, std::move(E));
  }
  if (matchPunct("+"))
    return parseUnary();
  return parsePrimary();
}

ExprPtr Parser::parsePrimary() {
  const Token &T = peek();
  support::SrcLoc StartLoc{T.Line, T.Col};
  if (T.is(TokKind::IntLit)) {
    advance();
    ExprPtr E = makeInt(T.IntValue);
    E->Loc = StartLoc;
    return E;
  }
  if (T.is(TokKind::FloatLit)) {
    advance();
    auto E = std::make_unique<FloatLit>(T.FloatValue);
    E->Loc = StartLoc;
    return E;
  }
  if (T.isPunct("(")) {
    advance();
    // Skip C-style casts "(double)".
    if (isTypeKeyword(peek()) && peek(1).isPunct(")")) {
      advance();
      advance();
      return parseUnary();
    }
    ExprPtr E = parseExpr();
    if (!E || !expectPunct(")"))
      return nullptr;
    return E;
  }
  if (T.is(TokKind::Ident)) {
    std::string Name = advance().Text;
    if (matchPunct("(")) {
      std::vector<ExprPtr> Args;
      if (!peek().isPunct(")")) {
        while (true) {
          // String literal arguments (printf) are dropped.
          if (peek().is(TokKind::StrLit)) {
            advance();
          } else {
            ExprPtr A = parseExpr();
            if (!A)
              return nullptr;
            Args.push_back(std::move(A));
          }
          if (!matchPunct(","))
            break;
        }
      }
      if (!expectPunct(")"))
        return nullptr;
      ExprPtr E = makeCall(Name, std::move(Args));
      E->Loc = StartLoc;
      return E;
    }
    if (peek().isPunct("[")) {
      std::vector<ExprPtr> Indices;
      while (matchPunct("[")) {
        ExprPtr I = parseExpr();
        if (!I || !expectPunct("]"))
          return nullptr;
        Indices.push_back(std::move(I));
      }
      auto E = std::make_unique<ArrayRef>(Name, std::move(Indices));
      E->Loc = StartLoc;
      return E;
    }
    ExprPtr E = makeVar(Name);
    E->Loc = StartLoc;
    return E;
  }
  fail("unexpected token '" + T.Text + "' in expression");
  return nullptr;
}

} // namespace detail
} // namespace cir
} // namespace locus
