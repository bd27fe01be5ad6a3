//===- LocusPrinter.cpp - Locus program unparser -------------------------------===//

#include "src/locus/LocusPrinter.h"

#include <set>
#include <sstream>

namespace locus {
namespace lang {

namespace {

class Printer {
public:
  void expr(const LExpr &E) {
    switch (E.Kind) {
    case LExprKind::Lit: {
      if (E.Literal.isString()) {
        Out << '"' << E.Literal.asString() << '"';
        return;
      }
      Out << E.Literal.str();
      return;
    }
    case LExprKind::Name:
      Out << E.Name;
      return;
    case LExprKind::Attr:
      expr(*E.Base);
      Out << '.' << E.Name;
      return;
    case LExprKind::Call: {
      expr(*E.Base);
      args(E.Args);
      return;
    }
    case LExprKind::SearchCall: {
      Out << E.Name;
      args(E.Args);
      return;
    }
    case LExprKind::DictMaker:
      Out << "dict()";
      return;
    case LExprKind::Index:
      expr(*E.Base);
      Out << '[';
      expr(*E.Sub);
      Out << ']';
      return;
    case LExprKind::Binary:
      Out << '(';
      expr(*E.Lhs);
      Out << ' ' << E.Op << ' ';
      expr(*E.Rhs);
      Out << ')';
      return;
    case LExprKind::Unary:
      Out << (E.Op == "not" ? "not " : E.Op.c_str());
      expr(*E.Lhs);
      return;
    case LExprKind::ListMaker: {
      Out << '[';
      for (size_t I = 0; I < E.Items.size(); ++I) {
        if (I)
          Out << ", ";
        expr(*E.Items[I]);
      }
      Out << ']';
      return;
    }
    case LExprKind::TupleMaker: {
      Out << '(';
      for (size_t I = 0; I < E.Items.size(); ++I) {
        if (I)
          Out << ", ";
        expr(*E.Items[I]);
      }
      Out << ')';
      return;
    }
    case LExprKind::Range:
      expr(*E.RangeLo);
      Out << "..";
      expr(*E.RangeHi);
      if (E.RangeStep) {
        Out << "..";
        expr(*E.RangeStep);
      }
      return;
    case LExprKind::OrExpr: {
      for (size_t I = 0; I < E.Items.size(); ++I) {
        if (I)
          Out << " OR ";
        expr(*E.Items[I]);
      }
      return;
    }
    }
  }

  void block(const LBlock &B, int Indent) {
    Out << "{\n";
    for (const LStmtPtr &S : B.Stmts)
      stmt(*S, Indent + 1);
    pad(Indent);
    Out << "}";
  }

  void stmt(const LStmt &S, int Indent) {
    switch (S.Kind) {
    case LStmtKind::ExprStmt:
      pad(Indent);
      if (S.Optional)
        Out << '*';
      expr(*S.Expr);
      Out << ";\n";
      return;
    case LStmtKind::Assign: {
      pad(Indent);
      for (size_t I = 0; I < S.Targets.size(); ++I) {
        if (I)
          Out << ", ";
        Out << S.Targets[I];
      }
      Out << " = ";
      expr(*S.Rhs);
      Out << ";\n";
      return;
    }
    case LStmtKind::If: {
      for (size_t I = 0; I < S.Conds.size(); ++I) {
        if (I == 0) {
          pad(Indent);
          Out << "if ";
        } else {
          Out << " elif ";
        }
        expr(*S.Conds[I]);
        Out << ' ';
        block(S.Blocks[I], Indent);
      }
      if (S.HasElse) {
        Out << " else ";
        block(S.ElseBlock, Indent);
      }
      Out << "\n";
      return;
    }
    case LStmtKind::For: {
      pad(Indent);
      Out << "for (";
      inlineSmall(*S.ForInit);
      Out << "; ";
      expr(*S.Conds[0]);
      Out << "; ";
      inlineSmall(*S.ForStep);
      Out << ") ";
      block(S.Blocks[0], Indent);
      Out << "\n";
      return;
    }
    case LStmtKind::While:
      pad(Indent);
      Out << "while ";
      expr(*S.Conds[0]);
      Out << ' ';
      block(S.Blocks[0], Indent);
      Out << "\n";
      return;
    case LStmtKind::Return:
      pad(Indent);
      Out << "return";
      if (S.Expr) {
        Out << ' ';
        expr(*S.Expr);
      }
      Out << ";\n";
      return;
    case LStmtKind::Print:
      pad(Indent);
      Out << "print ";
      expr(*S.Expr);
      Out << ";\n";
      return;
    case LStmtKind::OrBlocks: {
      pad(Indent);
      for (size_t I = 0; I < S.Blocks.size(); ++I) {
        if (I)
          Out << " OR ";
        block(S.Blocks[I], Indent);
      }
      Out << "\n";
      return;
    }
    case LStmtKind::Block:
      pad(Indent);
      block(S.Blocks[0], Indent);
      Out << "\n";
      return;
    }
  }

  void inlineSmall(const LStmt &S) {
    if (S.Kind == LStmtKind::Assign) {
      for (size_t I = 0; I < S.Targets.size(); ++I) {
        if (I)
          Out << ", ";
        Out << S.Targets[I];
      }
      Out << " = ";
      expr(*S.Rhs);
    } else if (S.Expr) {
      expr(*S.Expr);
    }
  }

  void function(const char *Keyword, const LFunction &F) {
    Out << Keyword << ' ' << F.Name << '(';
    for (size_t I = 0; I < F.Params.size(); ++I) {
      if (I)
        Out << ", ";
      Out << F.Params[I];
    }
    Out << ") ";
    block(F.Body, 0);
    Out << "\n\n";
  }

  std::string take() { return Out.str(); }

  void pad(int Indent) {
    for (int I = 0; I < Indent * 2; ++I)
      Out << ' ';
  }

  std::ostringstream Out;

private:
  void args(const std::vector<LArg> &Args) {
    Out << '(';
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out << ", ";
      if (!Args[I].Keyword.empty())
        Out << Args[I].Keyword << '=';
      expr(*Args[I].Expr);
    }
    Out << ')';
  }
};

} // namespace

std::string printLocusProgram(const LocusProgram &Prog) {
  Printer P;
  for (const std::string &Import : Prog.Imports)
    P.Out << "import \"" << Import << "\";\n";
  if (!Prog.Imports.empty())
    P.Out << "\n";
  for (const LStmtPtr &S : Prog.GlobalStmts.Stmts)
    P.stmt(*S, 0);
  if (!Prog.GlobalStmts.Stmts.empty())
    P.Out << "\n";
  if (Prog.HasSearchBlock) {
    P.Out << "Search ";
    P.block(Prog.SearchBlock, 0);
    P.Out << "\n\n";
  }
  for (const LFunction &F : Prog.Defs)
    P.function("def", F);
  for (const LFunction &F : Prog.Queries)
    P.function("Query", F);
  for (const LFunction &F : Prog.OptSeqs)
    P.function("OptSeq", F);
  for (const auto &[Name, Body] : Prog.CodeRegs) {
    P.Out << "CodeReg " << Name << ' ';
    P.block(Body, 0);
    P.Out << "\n\n";
  }
  return P.take();
}

//===----------------------------------------------------------------------===//
// Direct-program export
//===----------------------------------------------------------------------===//

namespace {

/// Mirrors the interpreter's path bookkeeping to pin constructs in place.
class Pinner {
public:
  Pinner(LocusProgram &Prog, const search::Point &Point)
      : Prog(Prog), Point(Point) {}

  Status run() {
    for (LStmtPtr &S : Prog.GlobalStmts.Stmts) {
      PathStack.assign(1, "global");
      pinStmt(S);
    }
    for (auto &[Name, Body] : Prog.CodeRegs) {
      PathStack.assign(1, Name);
      pinBlock(Body);
    }
    return Err.empty() ? Status::success() : Status::error(Err);
  }

private:
  std::string paramId(int NodeId) const {
    std::string Id;
    for (const std::string &P : PathStack)
      Id += P + "/";
    return Id + "#" + std::to_string(NodeId);
  }

  const search::PointValue *lookup(int NodeId) const {
    return Point.find(paramId(NodeId));
  }

  LExprPtr literal(Value V, int Line) {
    auto E = std::make_unique<LExpr>();
    E->Kind = LExprKind::Lit;
    E->Line = Line;
    E->Literal = std::move(V);
    return E;
  }

  void pinBlock(LBlock &B) {
    std::vector<LStmtPtr> Out;
    for (LStmtPtr &S : B.Stmts) {
      if (!pinStmt(S))
        continue; // dropped optional statement
      if (Inline) {
        for (LStmtPtr &Sub : Inline->Stmts)
          Out.push_back(std::move(Sub));
        Inline.reset();
        continue;
      }
      Out.push_back(std::move(S));
    }
    B.Stmts = std::move(Out);
  }

  /// Pins one statement in place. Returns false when the statement must be
  /// dropped (optional pinned off). Sets Inline when the statement expands
  /// to a block's contents (a pinned OR block).
  bool pinStmt(LStmtPtr &S) {
    switch (S->Kind) {
    case LStmtKind::OrBlocks: {
      if (const search::PointValue *V = lookup(S->NodeId)) {
        size_t Choice = static_cast<size_t>(std::get<int64_t>(*V));
        if (Choice >= S->Blocks.size()) {
          fail("OR selector out of range");
          return true;
        }
        PathStack.push_back("alt" + std::to_string(Choice));
        pinBlock(S->Blocks[Choice]);
        PathStack.pop_back();
        Inline = std::make_unique<LBlock>(std::move(S->Blocks[Choice]));
        return true;
      }
      for (size_t I = 0; I < S->Blocks.size(); ++I) {
        PathStack.push_back("alt" + std::to_string(I));
        pinBlock(S->Blocks[I]);
        PathStack.pop_back();
      }
      return true;
    }
    case LStmtKind::ExprStmt: {
      if (S->Optional) {
        if (const search::PointValue *V = lookup(S->NodeId)) {
          if (std::get<int64_t>(*V) == 0)
            return false; // the None alternative: drop
          S->Optional = false;
        }
      }
      pinExpr(S->Expr);
      return true;
    }
    case LStmtKind::Assign:
      pinExpr(S->Rhs);
      return true;
    case LStmtKind::If: {
      for (auto &C : S->Conds)
        pinExpr(C);
      for (auto &B : S->Blocks)
        pinBlock(B);
      if (S->HasElse)
        pinBlock(S->ElseBlock);
      return true;
    }
    case LStmtKind::For:
    case LStmtKind::While: {
      if (S->Conds.size() == 1)
        pinExpr(S->Conds[0]);
      pinBlock(S->Blocks[0]);
      return true;
    }
    case LStmtKind::Block:
      pinBlock(S->Blocks[0]);
      return true;
    case LStmtKind::Return:
    case LStmtKind::Print:
      if (S->Expr)
        pinExpr(S->Expr);
      return true;
    }
    return true;
  }

  void pinExpr(LExprPtr &E) {
    if (!E)
      return;
    switch (E->Kind) {
    case LExprKind::SearchCall: {
      const search::PointValue *V = lookup(E->NodeId);
      if (!V) {
        // Recurse so nested constructs (dependent ranges) still pin.
        for (LArg &A : E->Args)
          pinExpr(A.Expr);
        return;
      }
      if (E->SKind == SearchKind::Enum) {
        size_t Choice = static_cast<size_t>(std::get<int64_t>(*V));
        if (Choice < E->Args.size()) {
          LExprPtr Chosen = std::move(E->Args[Choice].Expr);
          pinExpr(Chosen);
          E = std::move(Chosen);
          return;
        }
        fail("enum selector out of range");
        return;
      }
      if (E->SKind == SearchKind::Permutation) {
        // Represent the chosen permutation as a literal index list applied
        // to the original argument via list indexing is overkill: the
        // common argument is seq(0, n), so the permutation itself is the
        // value.
        const auto &Perm = std::get<std::vector<int>>(*V);
        auto List = std::make_unique<LExpr>();
        List->Kind = LExprKind::ListMaker;
        List->Line = E->Line;
        for (int I : Perm)
          List->Items.push_back(literal(Value(static_cast<int64_t>(I)), E->Line));
        E = std::move(List);
        return;
      }
      if (const auto *I = std::get_if<int64_t>(V)) {
        E = literal(Value(*I), E->Line);
        return;
      }
      if (const auto *D = std::get_if<double>(V)) {
        E = literal(Value(*D), E->Line);
        return;
      }
      fail("unsupported pinned value kind");
      return;
    }
    case LExprKind::OrExpr: {
      if (const search::PointValue *V = lookup(E->NodeId)) {
        size_t Choice = static_cast<size_t>(std::get<int64_t>(*V));
        if (Choice < E->Items.size()) {
          PathStack.push_back("alt" + std::to_string(Choice));
          LExprPtr Chosen = std::move(E->Items[Choice]);
          pinExpr(Chosen);
          PathStack.pop_back();
          E = std::move(Chosen);
          return;
        }
        fail("OR selector out of range");
        return;
      }
      for (size_t I = 0; I < E->Items.size(); ++I) {
        PathStack.push_back("alt" + std::to_string(I));
        pinExpr(E->Items[I]);
        PathStack.pop_back();
      }
      return;
    }
    case LExprKind::Call: {
      // Calls to OptSeqs establish a callsite frame; specialize the OptSeq
      // body per call site by pinning through it with the extended path.
      if (E->Base && E->Base->Kind == LExprKind::Name) {
        for (LFunction &F : Prog.OptSeqs) {
          if (F.Name != E->Base->Name)
            continue;
          // Specialize: clone under a unique name for this callsite.
          std::string Special = F.Name + "_c" + std::to_string(E->NodeId);
          LFunction Copy{Special, F.Params, F.Body.clone(), F.Line};
          PathStack.push_back("c" + std::to_string(E->NodeId));
          pinBlock(Copy.Body);
          PathStack.pop_back();
          Specialized.push_back(std::move(Copy));
          E->Base->Name = Special;
          break;
        }
      }
      pinExpr(E->Base);
      for (LArg &A : E->Args)
        pinExpr(A.Expr);
      return;
    }
    case LExprKind::Attr:
      pinExpr(E->Base);
      return;
    case LExprKind::Index:
      pinExpr(E->Base);
      pinExpr(E->Sub);
      return;
    case LExprKind::Binary:
      pinExpr(E->Lhs);
      pinExpr(E->Rhs);
      return;
    case LExprKind::Unary:
      pinExpr(E->Lhs);
      return;
    case LExprKind::ListMaker:
    case LExprKind::TupleMaker:
      for (LExprPtr &I : E->Items)
        pinExpr(I);
      return;
    case LExprKind::Range:
      pinExpr(E->RangeLo);
      pinExpr(E->RangeHi);
      if (E->RangeStep)
        pinExpr(E->RangeStep);
      return;
    default:
      return;
    }
  }

  void fail(const std::string &Message) {
    if (Err.empty())
      Err = Message;
  }

public:
  std::vector<LFunction> Specialized;

private:
  LocusProgram &Prog;
  const search::Point &Point;
  std::vector<std::string> PathStack;
  std::unique_ptr<LBlock> Inline;
  std::string Err;
};

} // namespace

namespace {

void collectCalledNames(const LExpr &E, std::set<std::string> &Out);

void collectCalledNames(const LBlock &B, std::set<std::string> &Out) {
  for (const LStmtPtr &S : B.Stmts) {
    if (S->Expr)
      collectCalledNames(*S->Expr, Out);
    if (S->Rhs)
      collectCalledNames(*S->Rhs, Out);
    for (const LExprPtr &C : S->Conds)
      collectCalledNames(*C, Out);
    for (const LBlock &Sub : S->Blocks)
      collectCalledNames(Sub, Out);
    collectCalledNames(S->ElseBlock, Out);
    if (S->ForInit && S->ForInit->Rhs)
      collectCalledNames(*S->ForInit->Rhs, Out);
    if (S->ForStep && S->ForStep->Rhs)
      collectCalledNames(*S->ForStep->Rhs, Out);
  }
}

void collectCalledNames(const LExpr &E, std::set<std::string> &Out) {
  if (E.Kind == LExprKind::Call && E.Base &&
      E.Base->Kind == LExprKind::Name)
    Out.insert(E.Base->Name);
  if (E.Base)
    collectCalledNames(*E.Base, Out);
  if (E.Sub)
    collectCalledNames(*E.Sub, Out);
  if (E.Lhs)
    collectCalledNames(*E.Lhs, Out);
  if (E.Rhs)
    collectCalledNames(*E.Rhs, Out);
  for (const LArg &A : E.Args)
    if (A.Expr)
      collectCalledNames(*A.Expr, Out);
  for (const LExprPtr &I : E.Items)
    collectCalledNames(*I, Out);
  if (E.RangeLo)
    collectCalledNames(*E.RangeLo, Out);
  if (E.RangeHi)
    collectCalledNames(*E.RangeHi, Out);
  if (E.RangeStep)
    collectCalledNames(*E.RangeStep, Out);
}

} // namespace

Expected<std::unique_ptr<LocusProgram>>
exportDirectProgram(const LocusProgram &Prog, const search::Point &Point) {
  std::unique_ptr<LocusProgram> Out = Prog.clone();
  Pinner P(*Out, Point);
  Status S = P.run();
  if (!S.ok())
    return Expected<std::unique_ptr<LocusProgram>>::error(S.message());
  for (LFunction &F : P.Specialized)
    Out->OptSeqs.push_back(std::move(F));

  // Pinning specializes OptSeqs per call site; drop the now-unreferenced
  // originals (which still contain search constructs) to a fixpoint.
  while (true) {
    std::set<std::string> Referenced;
    for (const auto &[Name, Body] : Out->CodeRegs)
      collectCalledNames(Body, Referenced);
    collectCalledNames(Out->GlobalStmts, Referenced);
    for (const LFunction &F : Out->OptSeqs)
      collectCalledNames(F.Body, Referenced);
    for (const LFunction &F : Out->Defs)
      collectCalledNames(F.Body, Referenced);
    size_t Before = Out->OptSeqs.size();
    // A simple mark pass keeps transitive references alive because OptSeq
    // bodies above contributed their callees; iterate until stable.
    std::vector<LFunction> Kept;
    for (LFunction &F : Out->OptSeqs)
      if (Referenced.count(F.Name))
        Kept.push_back(std::move(F));
    Out->OptSeqs = std::move(Kept);
    if (Out->OptSeqs.size() == Before)
      break;
  }
  return Expected<std::unique_ptr<LocusProgram>>(std::move(Out));
}

} // namespace lang
} // namespace locus
