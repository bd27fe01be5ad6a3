//===- AstUtils.cpp - MiniC AST manipulation helpers -----------------------===//

#include "src/cir/AstUtils.h"

#include "src/cir/Printer.h"
#include "src/support/Hashing.h"

#include <algorithm>

namespace locus {
namespace cir {

std::vector<ForStmt *> perfectNest(ForStmt &Root) {
  std::vector<ForStmt *> Nest;
  ForStmt *Current = &Root;
  while (true) {
    Nest.push_back(Current);
    if (Current->Body->Stmts.size() != 1)
      break;
    auto *Next = dyn_cast<ForStmt>(Current->Body->Stmts.front().get());
    if (!Next)
      break;
    Current = Next;
  }
  return Nest;
}

int loopNestDepth(const ForStmt &Root) {
  int MaxChild = 0;
  const std::function<int(const Block &)> BlockDepth =
      [&](const Block &B) -> int {
    int Max = 0;
    for (const auto &S : B.Stmts) {
      if (const auto *For = dyn_cast<ForStmt>(S.get()))
        Max = std::max(Max, loopNestDepth(*For));
      else if (const auto *Sub = dyn_cast<Block>(S.get()))
        Max = std::max(Max, BlockDepth(*Sub));
      else if (const auto *If = dyn_cast<IfStmt>(S.get())) {
        Max = std::max(Max, BlockDepth(*If->Then));
        if (If->Else)
          Max = std::max(Max, BlockDepth(*If->Else));
      }
    }
    return Max;
  };
  MaxChild = BlockDepth(*Root.Body);
  return 1 + MaxChild;
}

bool isPerfectNest(const ForStmt &Root) {
  const ForStmt *Current = &Root;
  while (true) {
    if (Current->Body->Stmts.empty())
      return true;
    bool HasLoop = false;
    for (const auto &S : Current->Body->Stmts)
      if (isa<ForStmt>(S.get()))
        HasLoop = true;
    if (!HasLoop)
      return true; // innermost body: any statements are fine
    if (Current->Body->Stmts.size() != 1)
      return false; // a loop plus siblings -> imperfect
    Current = cast<ForStmt>(Current->Body->Stmts.front().get());
  }
}

ExprPtr rewriteExpr(ExprPtr E,
                    const std::function<ExprPtr(const Expr &)> &Fn) {
  if (ExprPtr New = Fn(*E))
    return New;
  switch (E->kind()) {
  case ExprKind::ArrayRef:
    for (auto &I : cast<ArrayRef>(E.get())->Indices)
      I = rewriteExpr(std::move(I), Fn);
    break;
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    B->Lhs = rewriteExpr(std::move(B->Lhs), Fn);
    B->Rhs = rewriteExpr(std::move(B->Rhs), Fn);
    break;
  }
  case ExprKind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    U->Operand = rewriteExpr(std::move(U->Operand), Fn);
    break;
  }
  case ExprKind::Call:
    for (auto &A : cast<CallExpr>(E.get())->Args)
      A = rewriteExpr(std::move(A), Fn);
    break;
  default:
    break;
  }
  return E;
}

void rewriteExprs(Stmt &S, const std::function<ExprPtr(const Expr &)> &Fn) {
  forEachExpr(S, [&](ExprPtr &E) { E = rewriteExpr(std::move(E), Fn); });
}

ExprPtr substituteVar(ExprPtr E, const std::string &Name,
                      const Expr &Replacement) {
  return rewriteExpr(std::move(E), [&](const Expr &X) -> ExprPtr {
    const auto *V = dyn_cast<VarRef>(&X);
    return V && V->Name == Name ? Replacement.clone() : nullptr;
  });
}

void substituteVarInStmt(Stmt &S, const std::string &Name,
                         const Expr &Replacement) {
  forEachExpr(S, [&](ExprPtr &E) {
    E = substituteVar(std::move(E), Name, Replacement);
  });
}

bool exprEquals(const Expr &A, const Expr &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case ExprKind::IntLit:
    return cast<IntLit>(&A)->Value == cast<IntLit>(&B)->Value;
  case ExprKind::FloatLit: {
    const auto *X = cast<FloatLit>(&A);
    const auto *Y = cast<FloatLit>(&B);
    // Values that unparse identically are indistinguishable after a print →
    // reparse round trip; treat them as equal so the verifier's round-trip
    // check is not tripped by the printer's limited float precision.
    return X->Value == Y->Value || printExpr(*X) == printExpr(*Y);
  }
  case ExprKind::VarRef:
    return cast<VarRef>(&A)->Name == cast<VarRef>(&B)->Name;
  case ExprKind::ArrayRef: {
    const auto *X = cast<ArrayRef>(&A);
    const auto *Y = cast<ArrayRef>(&B);
    if (X->Name != Y->Name || X->Indices.size() != Y->Indices.size())
      return false;
    for (size_t I = 0; I < X->Indices.size(); ++I)
      if (!exprEquals(*X->Indices[I], *Y->Indices[I]))
        return false;
    return true;
  }
  case ExprKind::Binary: {
    const auto *X = cast<BinaryExpr>(&A);
    const auto *Y = cast<BinaryExpr>(&B);
    return X->Op == Y->Op && exprEquals(*X->Lhs, *Y->Lhs) &&
           exprEquals(*X->Rhs, *Y->Rhs);
  }
  case ExprKind::Unary: {
    const auto *X = cast<UnaryExpr>(&A);
    const auto *Y = cast<UnaryExpr>(&B);
    return X->Op == Y->Op && exprEquals(*X->Operand, *Y->Operand);
  }
  case ExprKind::Call: {
    const auto *X = cast<CallExpr>(&A);
    const auto *Y = cast<CallExpr>(&B);
    if (X->Callee != Y->Callee || X->Args.size() != Y->Args.size())
      return false;
    for (size_t I = 0; I < X->Args.size(); ++I)
      if (!exprEquals(*X->Args[I], *Y->Args[I]))
        return false;
    return true;
  }
  }
  return false;
}

namespace {

/// Descends through singleton unnamed, pragma-free child blocks: the
/// statement list of the returned block is the normalized content of \p B.
const Block *unwrapBlock(const Block *B) {
  while (B->Stmts.size() == 1) {
    const auto *Inner = dyn_cast<Block>(B->Stmts.front().get());
    if (!Inner || !Inner->RegionName.empty() || !Inner->Pragmas.empty())
      break;
    B = Inner;
  }
  return B;
}

bool blockContentsEqual(const Block &A, const Block &B) {
  const Block *NA = unwrapBlock(&A);
  const Block *NB = unwrapBlock(&B);
  if (NA->Stmts.size() != NB->Stmts.size())
    return false;
  for (size_t I = 0; I < NA->Stmts.size(); ++I)
    if (!stmtEquals(*NA->Stmts[I], *NB->Stmts[I]))
      return false;
  return true;
}

} // namespace

bool stmtEquals(const Stmt &A, const Stmt &B) {
  if (A.kind() != B.kind()) {
    // Allow a redundant singleton wrapper block on one side only.
    if (const auto *BA = dyn_cast<Block>(&A))
      if (BA->RegionName.empty() && BA->Pragmas.empty() &&
          BA->Stmts.size() == 1)
        return stmtEquals(*BA->Stmts.front(), B);
    if (const auto *BB = dyn_cast<Block>(&B))
      if (BB->RegionName.empty() && BB->Pragmas.empty() &&
          BB->Stmts.size() == 1)
        return stmtEquals(A, *BB->Stmts.front());
    return false;
  }
  if (A.Pragmas != B.Pragmas)
    return false;
  switch (A.kind()) {
  case StmtKind::Block: {
    const auto *X = cast<Block>(&A);
    const auto *Y = cast<Block>(&B);
    return X->RegionName == Y->RegionName && blockContentsEqual(*X, *Y);
  }
  case StmtKind::For: {
    const auto *X = cast<ForStmt>(&A);
    const auto *Y = cast<ForStmt>(&B);
    return X->Var == Y->Var && X->Op == Y->Op && X->Step == Y->Step &&
           exprEquals(*X->Init, *Y->Init) && exprEquals(*X->Bound, *Y->Bound) &&
           blockContentsEqual(*X->Body, *Y->Body);
  }
  case StmtKind::If: {
    const auto *X = cast<IfStmt>(&A);
    const auto *Y = cast<IfStmt>(&B);
    if (!exprEquals(*X->Cond, *Y->Cond) ||
        !blockContentsEqual(*X->Then, *Y->Then))
      return false;
    if (static_cast<bool>(X->Else) != static_cast<bool>(Y->Else))
      return false;
    return !X->Else || blockContentsEqual(*X->Else, *Y->Else);
  }
  case StmtKind::Assign: {
    const auto *X = cast<AssignStmt>(&A);
    const auto *Y = cast<AssignStmt>(&B);
    return X->Op == Y->Op && exprEquals(*X->Lhs, *Y->Lhs) &&
           exprEquals(*X->Rhs, *Y->Rhs);
  }
  case StmtKind::Decl: {
    const auto *X = cast<DeclStmt>(&A);
    const auto *Y = cast<DeclStmt>(&B);
    if (X->Elem != Y->Elem || X->Name != Y->Name || X->Dims != Y->Dims)
      return false;
    if (static_cast<bool>(X->Init) != static_cast<bool>(Y->Init))
      return false;
    return !X->Init || exprEquals(*X->Init, *Y->Init);
  }
  case StmtKind::CallStmt:
    return exprEquals(*cast<CallStmt>(&A)->Call, *cast<CallStmt>(&B)->Call);
  }
  return false;
}

bool programEquals(const Program &A, const Program &B) {
  std::vector<const Stmt *> SA, SB;
  const auto Collect = [](const Program &P, std::vector<const Stmt *> &Out) {
    for (const auto &G : P.Globals)
      Out.push_back(G.get());
    const Block *Body = unwrapBlock(P.Body.get());
    for (const auto &S : Body->Stmts)
      Out.push_back(S.get());
  };
  Collect(A, SA);
  Collect(B, SB);
  if (SA.size() != SB.size())
    return false;
  for (size_t I = 0; I < SA.size(); ++I)
    if (!stmtEquals(*SA[I], *SB[I]))
      return false;
  return true;
}

void collectVars(const Expr &E, std::set<std::string> &Out) {
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      Out.insert(V->Name);
    return true;
  });
}

void collectArrays(const Expr &E, std::set<std::string> &Out) {
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (const auto *A = dyn_cast<ArrayRef>(&Sub))
      Out.insert(A->Name);
    return true;
  });
}

bool referencesVar(const Expr &E, const std::string &Name) {
  bool Found = false;
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      Found = Found || V->Name == Name;
    return !Found;
  });
  return Found;
}

bool stmtReferencesVar(const Stmt &S, const std::string &Name) {
  bool Found = false;
  forEachExpr(S, [&](const ExprPtr &E) {
    if (!Found && referencesVar(*E, Name))
      Found = true;
  });
  if (Found)
    return true;
  forEachStmt(S, [&](const Stmt &Sub) {
    if (const auto *For = dyn_cast<ForStmt>(&Sub))
      Found = Found || For->Var == Name;
    else if (const auto *D = dyn_cast<DeclStmt>(&Sub))
      Found = Found || D->Name == Name;
  });
  return Found;
}

std::optional<int64_t> evalConstInt(const Expr &E,
                                    const std::map<std::string, int64_t> *Env) {
  switch (E.kind()) {
  case ExprKind::IntLit:
    return cast<IntLit>(&E)->Value;
  case ExprKind::VarRef: {
    if (!Env)
      return std::nullopt;
    auto It = Env->find(cast<VarRef>(&E)->Name);
    if (It == Env->end())
      return std::nullopt;
    return It->second;
  }
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    std::optional<int64_t> V = evalConstInt(*U->Operand, Env);
    if (!V || (U->Op == UnOp::Neg && *V == INT64_MIN))
      return std::nullopt;
    return U->Op == UnOp::Neg ? -*V : static_cast<int64_t>(*V == 0);
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    std::optional<int64_t> L = evalConstInt(*B->Lhs, Env);
    std::optional<int64_t> R = evalConstInt(*B->Rhs, Env);
    if (!L || !R)
      return std::nullopt;
    int64_t V = 0;
    switch (B->Op) {
    case BinOp::Add:
      return __builtin_add_overflow(*L, *R, &V) ? std::nullopt
                                                : std::optional<int64_t>(V);
    case BinOp::Sub:
      return __builtin_sub_overflow(*L, *R, &V) ? std::nullopt
                                                : std::optional<int64_t>(V);
    case BinOp::Mul:
      return __builtin_mul_overflow(*L, *R, &V) ? std::nullopt
                                                : std::optional<int64_t>(V);
    case BinOp::Div:
    case BinOp::Mod:
      if (*R == 0 || (*L == INT64_MIN && *R == -1))
        return std::nullopt;
      return B->Op == BinOp::Div ? *L / *R : *L % *R;
    case BinOp::Lt:
      return static_cast<int64_t>(*L < *R);
    case BinOp::Le:
      return static_cast<int64_t>(*L <= *R);
    case BinOp::Gt:
      return static_cast<int64_t>(*L > *R);
    case BinOp::Ge:
      return static_cast<int64_t>(*L >= *R);
    case BinOp::Eq:
      return static_cast<int64_t>(*L == *R);
    case BinOp::Ne:
      return static_cast<int64_t>(*L != *R);
    case BinOp::And:
      return static_cast<int64_t>(*L != 0 && *R != 0);
    case BinOp::Or:
      return static_cast<int64_t>(*L != 0 || *R != 0);
    }
    return std::nullopt;
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    if ((C->Callee == "min" || C->Callee == "max") && C->Args.size() == 2) {
      std::optional<int64_t> A = evalConstInt(*C->Args[0], Env);
      std::optional<int64_t> B = evalConstInt(*C->Args[1], Env);
      if (A && B)
        return C->Callee == "min" ? std::min(*A, *B) : std::max(*A, *B);
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

std::optional<int64_t> tripCount(int64_t First, int64_t Limit, int64_t Step) {
  if (Step <= 0)
    return std::nullopt;
  if (Limit <= First)
    return 0;
  // Limit - First is positive and below 2^64: exact in unsigned arithmetic.
  uint64_t Span = static_cast<uint64_t>(Limit) - static_cast<uint64_t>(First);
  uint64_t Trips = (Span - 1) / static_cast<uint64_t>(Step) + 1;
  if (Trips > static_cast<uint64_t>(INT64_MAX))
    return std::nullopt;
  return static_cast<int64_t>(Trips);
}

std::optional<ConstLoop> constLoop(const ForStmt &Loop) {
  std::optional<int64_t> First = evalConstInt(*Loop.Init);
  std::optional<int64_t> Bound = evalConstInt(*Loop.Bound);
  if (!First || !Bound)
    return std::nullopt;
  int64_t Limit = *Bound;
  if (Loop.Op == BoundOp::Le && __builtin_add_overflow(*Bound, 1, &Limit))
    return std::nullopt;
  std::optional<int64_t> Trips = tripCount(*First, Limit, Loop.Step);
  if (!Trips)
    return std::nullopt;
  return ConstLoop{*First, Limit, Loop.Step, *Trips};
}

ExprPtr exclusiveBound(const ForStmt &Loop) {
  if (Loop.Op == BoundOp::Lt)
    return Loop.Bound->clone();
  return foldExpr(makeBin(BinOp::Add, Loop.Bound->clone(), makeInt(1)));
}

ExprPtr foldExpr(ExprPtr E) {
  switch (E->kind()) {
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E.get());
    B->Lhs = foldExpr(std::move(B->Lhs));
    B->Rhs = foldExpr(std::move(B->Rhs));
    if (std::optional<int64_t> V = evalConstInt(*E))
      return makeInt(*V);
    std::optional<int64_t> L = evalConstInt(*B->Lhs);
    std::optional<int64_t> R = evalConstInt(*B->Rhs);
    // x + 0, x - 0
    if ((B->Op == BinOp::Add || B->Op == BinOp::Sub) && R && *R == 0)
      return std::move(B->Lhs);
    // 0 + x
    if (B->Op == BinOp::Add && L && *L == 0)
      return std::move(B->Rhs);
    // x * 1, x / 1
    if ((B->Op == BinOp::Mul || B->Op == BinOp::Div) && R && *R == 1)
      return std::move(B->Lhs);
    // 1 * x
    if (B->Op == BinOp::Mul && L && *L == 1)
      return std::move(B->Rhs);
    // 0 * x, x * 0
    if (B->Op == BinOp::Mul && ((L && *L == 0) || (R && *R == 0)))
      return makeInt(0);
    return E;
  }
  case ExprKind::Unary: {
    auto *U = cast<UnaryExpr>(E.get());
    U->Operand = foldExpr(std::move(U->Operand));
    if (std::optional<int64_t> V = evalConstInt(*E))
      return makeInt(*V);
    return E;
  }
  case ExprKind::Call: {
    auto *C = cast<CallExpr>(E.get());
    for (auto &A : C->Args)
      A = foldExpr(std::move(A));
    if ((C->Callee == "min" || C->Callee == "max") && C->Args.size() == 2) {
      if (std::optional<int64_t> V = evalConstInt(*E))
        return makeInt(*V);
      // min(x, x) == x
      if (exprEquals(*C->Args[0], *C->Args[1]))
        return std::move(C->Args[0]);
    }
    return E;
  }
  case ExprKind::ArrayRef: {
    auto *A = cast<ArrayRef>(E.get());
    for (auto &I : A->Indices)
      I = foldExpr(std::move(I));
    return E;
  }
  default:
    return E;
  }
}

void forEachSubExpr(const Expr &E,
                    const std::function<bool(const Expr &)> &Fn) {
  if (!Fn(E))
    return;
  switch (E.kind()) {
  case ExprKind::ArrayRef:
    for (const auto &I : cast<ArrayRef>(&E)->Indices)
      forEachSubExpr(*I, Fn);
    return;
  case ExprKind::Binary:
    forEachSubExpr(*cast<BinaryExpr>(&E)->Lhs, Fn);
    forEachSubExpr(*cast<BinaryExpr>(&E)->Rhs, Fn);
    return;
  case ExprKind::Unary:
    forEachSubExpr(*cast<UnaryExpr>(&E)->Operand, Fn);
    return;
  case ExprKind::Call:
    for (const auto &A : cast<CallExpr>(&E)->Args)
      forEachSubExpr(*A, Fn);
    return;
  default:
    return;
  }
}

namespace {

// One body for the mutable and the const walks: \p StmtT is Stmt or
// const Stmt, and the children are visited with the same constness.

template <typename StmtT, typename FnT>
void walkExprs(StmtT &S, const FnT &Fn) {
  switch (S.kind()) {
  case StmtKind::Block:
    for (auto &Sub : cast<Block>(&S)->Stmts)
      walkExprs<StmtT>(*Sub, Fn);
    return;
  case StmtKind::For: {
    auto *F = cast<ForStmt>(&S);
    Fn(F->Init);
    Fn(F->Bound);
    walkExprs<StmtT>(*F->Body, Fn);
    return;
  }
  case StmtKind::If: {
    auto *I = cast<IfStmt>(&S);
    Fn(I->Cond);
    walkExprs<StmtT>(*I->Then, Fn);
    if (I->Else)
      walkExprs<StmtT>(*I->Else, Fn);
    return;
  }
  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(&S);
    Fn(A->Lhs);
    Fn(A->Rhs);
    return;
  }
  case StmtKind::Decl: {
    auto *D = cast<DeclStmt>(&S);
    if (D->Init)
      Fn(D->Init);
    return;
  }
  case StmtKind::CallStmt:
    Fn(cast<CallStmt>(&S)->Call);
    return;
  }
}

template <typename StmtT, typename FnT>
void walkStmts(StmtT &S, const FnT &Fn) {
  Fn(S);
  switch (S.kind()) {
  case StmtKind::Block:
    for (auto &Sub : cast<Block>(&S)->Stmts)
      walkStmts<StmtT>(*Sub, Fn);
    return;
  case StmtKind::For:
    walkStmts<StmtT>(*cast<ForStmt>(&S)->Body, Fn);
    return;
  case StmtKind::If: {
    auto *I = cast<IfStmt>(&S);
    walkStmts<StmtT>(*I->Then, Fn);
    if (I->Else)
      walkStmts<StmtT>(*I->Else, Fn);
    return;
  }
  default:
    return;
  }
}

} // namespace

void forEachExpr(Stmt &S, const std::function<void(ExprPtr &)> &Fn) {
  walkExprs(S, Fn);
}

void forEachExpr(const Stmt &S,
                 const std::function<void(const ExprPtr &)> &Fn) {
  walkExprs(S, Fn);
}

void forEachStmt(Stmt &S, const std::function<void(Stmt &)> &Fn) {
  walkStmts(S, Fn);
}

void forEachStmt(const Stmt &S, const std::function<void(const Stmt &)> &Fn) {
  walkStmts(S, Fn);
}

uint64_t hashRegion(const Block &Region) {
  PrintOptions Opts;
  Opts.EmitRegionPragmas = false;
  return fnv1a(printStmt(Region, Opts));
}

} // namespace cir
} // namespace locus
