//===- Printer.cpp - MiniC unparser ---------------------------------------===//

#include "src/cir/Printer.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string_view>

namespace locus {
namespace cir {

namespace {

/// The printer's one output buffer: every statement, expression and literal
/// of a program appends to the same string. The printed text is hashed
/// into eval-cache keys (makeCacheKey), so numbers keep the bytes of
/// ostream's default formatting that persistent cache stores were keyed
/// with.
class TextOut {
public:
  TextOut &operator<<(std::string_view S) {
    Text += S;
    return *this;
  }
  TextOut &operator<<(char C) {
    Text += C;
    return *this;
  }
  TextOut &operator<<(int64_t V) {
    char Buf[24];
    Text.append(Buf, std::to_chars(Buf, Buf + sizeof Buf, V).ptr);
    return *this;
  }
  /// ostream's default double format: %g at precision 6, "inf"/"nan" as
  /// printf spells them. A result that would read as an integer gets ".0"
  /// so it stays a floating literal.
  TextOut &operator<<(double V) {
    char Buf[32];
    int N = std::snprintf(Buf, sizeof Buf, "%g", V);
    std::string_view Num(Buf, static_cast<size_t>(N));
    Text += Num;
    if (Num.find_first_of(".e") == std::string_view::npos &&
        Num.find("inf") == std::string_view::npos)
      Text += ".0";
    return *this;
  }

  std::string Text;
};

/// C operator precedence used to parenthesize minimally but safely.
int precedence(BinOp Op) {
  switch (Op) {
  case BinOp::Mul:
  case BinOp::Div:
  case BinOp::Mod:
    return 5;
  case BinOp::Add:
  case BinOp::Sub:
    return 4;
  case BinOp::Lt:
  case BinOp::Le:
  case BinOp::Gt:
  case BinOp::Ge:
    return 3;
  case BinOp::Eq:
  case BinOp::Ne:
    return 2;
  case BinOp::And:
    return 1;
  case BinOp::Or:
    return 0;
  }
  return 0;
}

const char *opText(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::Lt:
    return "<";
  case BinOp::Le:
    return "<=";
  case BinOp::Gt:
    return ">";
  case BinOp::Ge:
    return ">=";
  case BinOp::Eq:
    return "==";
  case BinOp::Ne:
    return "!=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  }
  return "?";
}

void printExprPrec(const Expr &E, int Parent, TextOut &Out) {
  switch (E.kind()) {
  case ExprKind::IntLit:
    Out << cast<IntLit>(&E)->Value;
    return;
  case ExprKind::FloatLit:
    Out << cast<FloatLit>(&E)->Value;
    return;
  case ExprKind::VarRef:
    Out << cast<VarRef>(&E)->Name;
    return;
  case ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRef>(&E);
    Out << A->Name;
    for (const auto &I : A->Indices) {
      Out << '[';
      printExprPrec(*I, -1, Out);
      Out << ']';
    }
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    int Prec = precedence(B->Op);
    bool Paren = Prec < Parent;
    if (Paren)
      Out << '(';
    printExprPrec(*B->Lhs, Prec, Out);
    Out << ' ' << opText(B->Op) << ' ';
    // Right operand binds one tighter to preserve left associativity of
    // non-commutative operators.
    printExprPrec(*B->Rhs, Prec + 1, Out);
    if (Paren)
      Out << ')';
    return;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    Out << (U->Op == UnOp::Neg ? '-' : '!');
    printExprPrec(*U->Operand, 6, Out);
    return;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    Out << C->Callee << '(';
    for (size_t I = 0; I < C->Args.size(); ++I) {
      if (I != 0)
        Out << ", ";
      printExprPrec(*C->Args[I], -1, Out);
    }
    Out << ')';
    return;
  }
  }
}

class StmtPrinter {
public:
  StmtPrinter(const PrintOptions &Opts) : Opts(Opts) {}

  void print(const Stmt &S, int Indent) {
    for (const auto &P : S.Pragmas)
      line(Indent) << "#pragma " << P << '\n';

    switch (S.kind()) {
    case StmtKind::Block: {
      const auto *B = cast<Block>(&S);
      bool IsRegion = !B->RegionName.empty() && Opts.EmitRegionPragmas;
      bool LoopRegion = IsRegion && B->Stmts.size() == 1 &&
                        isa<ForStmt>(B->Stmts.front().get());
      if (LoopRegion) {
        line(Indent) << "#pragma @Locus loop=" << B->RegionName << '\n';
        print(*B->Stmts.front(), Indent);
        return;
      }
      if (IsRegion)
        line(Indent) << "#pragma @Locus block=" << B->RegionName << '\n';
      line(Indent) << "{\n";
      for (const auto &Sub : B->Stmts)
        print(*Sub, Indent + 1);
      line(Indent) << "}\n";
      if (IsRegion)
        line(Indent) << "#pragma @Locus endblock\n";
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      line(Indent) << "for (" << F->Var << " = ";
      expr(*F->Init) << "; " << F->Var
                     << (F->Op == BoundOp::Lt ? " < " : " <= ");
      expr(*F->Bound) << "; " << F->Var;
      if (F->Step == 1)
        Out << "++";
      else
        Out << " += " << F->Step;
      Out << ") {\n";
      for (const auto &Sub : F->Body->Stmts)
        print(*Sub, Indent + 1);
      line(Indent) << "}\n";
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      line(Indent) << "if (";
      expr(*I->Cond) << ") {\n";
      for (const auto &Sub : I->Then->Stmts)
        print(*Sub, Indent + 1);
      if (I->Else) {
        line(Indent) << "} else {\n";
        for (const auto &Sub : I->Else->Stmts)
          print(*Sub, Indent + 1);
      }
      line(Indent) << "}\n";
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      const char *Op = "=";
      if (A->Op == AssignOp::Add)
        Op = "+=";
      else if (A->Op == AssignOp::Sub)
        Op = "-=";
      else if (A->Op == AssignOp::Mul)
        Op = "*=";
      line(Indent);
      expr(*A->Lhs) << ' ' << Op << ' ';
      expr(*A->Rhs) << ";\n";
      return;
    }
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      line(Indent) << (D->Elem == ElemType::Int ? "int " : "double ")
                   << D->Name;
      for (int64_t Dim : D->Dims)
        Out << '[' << Dim << ']';
      if (D->Init) {
        Out << " = ";
        expr(*D->Init);
      }
      Out << ";\n";
      return;
    }
    case StmtKind::CallStmt: {
      const auto *C = cast<CallStmt>(&S);
      line(Indent);
      expr(*C->Call) << ";\n";
      return;
    }
    }
  }

  std::string take() { return std::move(Out.Text); }

  /// Separates the globals from the body in a whole-program printout.
  void blankLine() { Out << '\n'; }

private:
  TextOut &line(int Indent) {
    Out.Text.append(static_cast<size_t>(std::max(0, Indent * Opts.IndentWidth)),
                    ' ');
    return Out;
  }

  TextOut &expr(const Expr &E) {
    printExprPrec(E, -1, Out);
    return Out;
  }

  const PrintOptions &Opts;
  TextOut Out;
};

} // namespace

std::string printExpr(const Expr &E) {
  TextOut Out;
  printExprPrec(E, -1, Out);
  return std::move(Out.Text);
}

std::string printStmt(const Stmt &S, const PrintOptions &Opts, int Indent) {
  StmtPrinter P(Opts);
  P.print(S, Indent);
  return P.take();
}

std::string printProgram(const Program &P, const PrintOptions &Opts) {
  StmtPrinter Printer(Opts);
  for (const auto &G : P.Globals)
    Printer.print(*G, 0);
  Printer.blankLine();
  for (const auto &S : P.Body->Stmts)
    Printer.print(*S, 0);
  return Printer.take();
}

} // namespace cir
} // namespace locus
