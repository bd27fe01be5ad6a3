//===- RangeAnalysis.cpp - Symbolic interval ranges over CIR --------------===//

#include "src/analysis/RangeAnalysis.h"

#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"

#include <algorithm>

namespace locus {
namespace analysis {

using namespace cir;

//===----------------------------------------------------------------------===//
// Saturating scalar arithmetic
//===----------------------------------------------------------------------===//

int64_t satAdd(int64_t A, int64_t B) {
  if (A == INT64_MIN || B == INT64_MIN)
    return INT64_MIN;
  if (A == INT64_MAX || B == INT64_MAX)
    return INT64_MAX;
  __int128 S = static_cast<__int128>(A) + B;
  if (S <= INT64_MIN)
    return INT64_MIN;
  if (S >= INT64_MAX)
    return INT64_MAX;
  return static_cast<int64_t>(S);
}

int64_t satNeg(int64_t A) {
  if (A == INT64_MIN)
    return INT64_MAX;
  if (A == INT64_MAX)
    return INT64_MIN;
  return -A;
}

int64_t satSub(int64_t A, int64_t B) { return satAdd(A, satNeg(B)); }

int64_t satMul(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  bool Neg = (A < 0) != (B < 0);
  if (A == INT64_MIN || A == INT64_MAX || B == INT64_MIN || B == INT64_MAX)
    return Neg ? INT64_MIN : INT64_MAX;
  __int128 P = static_cast<__int128>(A) * B;
  if (P <= INT64_MIN)
    return INT64_MIN;
  if (P >= INT64_MAX)
    return INT64_MAX;
  return static_cast<int64_t>(P);
}

//===----------------------------------------------------------------------===//
// Interval lattice and arithmetic
//===----------------------------------------------------------------------===//

std::string Interval::str() const {
  if (Empty)
    return "[]";
  std::string S = "[";
  S += Lo == INT64_MIN ? "-inf" : std::to_string(Lo);
  S += ", ";
  S += Hi == INT64_MAX ? "+inf" : std::to_string(Hi);
  S += "]";
  return S;
}

Interval join(const Interval &A, const Interval &B) {
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  return Interval::make(std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi));
}

Interval meet(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  return Interval::make(std::max(A.Lo, B.Lo), std::min(A.Hi, B.Hi));
}

Interval widen(const Interval &Old, const Interval &New) {
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  Interval W;
  W.Lo = New.Lo < Old.Lo ? INT64_MIN : Old.Lo;
  W.Hi = New.Hi > Old.Hi ? INT64_MAX : Old.Hi;
  return W;
}

Interval rangeAdd(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  return Interval::make(satAdd(A.Lo, B.Lo), satAdd(A.Hi, B.Hi));
}

Interval rangeNeg(const Interval &A) {
  if (A.Empty)
    return Interval::none();
  return Interval::make(satNeg(A.Hi), satNeg(A.Lo));
}

Interval rangeSub(const Interval &A, const Interval &B) {
  return rangeAdd(A, rangeNeg(B));
}

Interval rangeMul(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  int64_t C[4] = {satMul(A.Lo, B.Lo), satMul(A.Lo, B.Hi), satMul(A.Hi, B.Lo),
                  satMul(A.Hi, B.Hi)};
  return Interval::make(*std::min_element(C, C + 4),
                        *std::max_element(C, C + 4));
}

namespace {

/// C truncating division of a possibly-saturated endpoint by a non-zero
/// finite constant.
int64_t truncDiv(int64_t A, int64_t C) {
  if (A == INT64_MIN)
    return C > 0 ? INT64_MIN : INT64_MAX;
  if (A == INT64_MAX)
    return C > 0 ? INT64_MAX : INT64_MIN;
  if (A == INT64_MIN + 1 && C == -1) // guard -MIN overflow after the above
    return INT64_MAX;
  return A / C;
}

} // namespace

Interval rangeDiv(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  // Truncating division is monotone in the dividend for a fixed non-zero
  // divisor, so corners suffice when the divisor interval excludes zero.
  if (!B.bounded() || (B.Lo <= 0 && B.Hi >= 0))
    return Interval::full();
  int64_t C[4] = {truncDiv(A.Lo, B.Lo), truncDiv(A.Lo, B.Hi),
                  truncDiv(A.Hi, B.Lo), truncDiv(A.Hi, B.Hi)};
  return Interval::make(*std::min_element(C, C + 4),
                        *std::max_element(C, C + 4));
}

Interval rangeMod(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  if (B.Lo != B.Hi || B.Lo == 0 || B.Lo == INT64_MIN)
    return Interval::full();
  int64_t M = B.Lo < 0 ? -B.Lo : B.Lo;
  if (A.Lo >= 0)
    return Interval::make(0, std::min(A.Hi, M - 1));
  return Interval::make(-(M - 1), M - 1);
}

Interval rangeMin(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  return Interval::make(std::min(A.Lo, B.Lo), std::min(A.Hi, B.Hi));
}

Interval rangeMax(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::none();
  return Interval::make(std::max(A.Lo, B.Lo), std::max(A.Hi, B.Hi));
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

namespace {

/// When \p Sum is `X + ((Y - X) / F) * F` with a literal F > 0 and the two
/// X's structurally equal, returns Y; otherwise null. The value then lies
/// between X and Y, since the truncated quotient times F lies between 0 and
/// Y - X. Unroll emits this remainder start, and interval arithmetic alone
/// loses the X-Y correlation: with F = 4, X = [0, 8] and Y = [4, 16] it
/// gives [-4, 24], the rule [0, 16].
const Expr *alignedStepToward(const BinaryExpr &Sum) {
  const auto *Mul = dyn_cast<BinaryExpr>(Sum.Rhs.get());
  if (!Mul || Mul->Op != BinOp::Mul)
    return nullptr;
  const auto *Div = dyn_cast<BinaryExpr>(Mul->Lhs.get());
  const auto *F = dyn_cast<IntLit>(Mul->Rhs.get());
  if (!Div || Div->Op != BinOp::Div || !F || F->Value <= 0)
    return nullptr;
  const auto *DivF = dyn_cast<IntLit>(Div->Rhs.get());
  const auto *Span = dyn_cast<BinaryExpr>(Div->Lhs.get());
  if (!DivF || DivF->Value != F->Value || !Span || Span->Op != BinOp::Sub ||
      !exprEquals(*Span->Rhs, *Sum.Lhs))
    return nullptr;
  return Span->Lhs.get();
}

} // namespace

Interval evalRange(const Expr &E, const RangeEnv &Env) {
  switch (E.kind()) {
  case ExprKind::IntLit:
    return Interval::point(cast<IntLit>(&E)->Value);
  case ExprKind::FloatLit:
    return Interval::full();
  case ExprKind::VarRef: {
    auto It = Env.find(cast<VarRef>(&E)->Name);
    return It == Env.end() ? Interval::full() : It->second;
  }
  case ExprKind::ArrayRef:
    return Interval::full(); // element values are not tracked
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    if (U->Op == UnOp::Neg)
      return rangeNeg(evalRange(*U->Operand, Env));
    return Interval::make(0, 1); // logical not
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    Interval L = evalRange(*B->Lhs, Env);
    Interval R = evalRange(*B->Rhs, Env);
    switch (B->Op) {
    case BinOp::Add:
      if (const Expr *Y = alignedStepToward(*B))
        return meet(rangeAdd(L, R), join(L, evalRange(*Y, Env)));
      return rangeAdd(L, R);
    case BinOp::Sub:
      return rangeSub(L, R);
    case BinOp::Mul:
      return rangeMul(L, R);
    case BinOp::Div:
      return rangeDiv(L, R);
    case BinOp::Mod:
      return rangeMod(L, R);
    default:
      if (L.Empty || R.Empty)
        return Interval::none();
      return Interval::make(0, 1); // comparisons and logical connectives
    }
  }
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    if ((C->Callee == "min" || C->Callee == "max") && !C->Args.empty()) {
      Interval Acc = evalRange(*C->Args[0], Env);
      for (size_t I = 1; I < C->Args.size(); ++I) {
        Interval Next = evalRange(*C->Args[I], Env);
        Acc = C->Callee == "min" ? rangeMin(Acc, Next) : rangeMax(Acc, Next);
      }
      return Acc;
    }
    return Interval::full();
  }
  }
  return Interval::full();
}

//===----------------------------------------------------------------------===//
// Dataflow walker
//===----------------------------------------------------------------------===//

namespace {

/// Missing keys mean full(); look up with that default.
Interval envGet(const RangeEnv &Env, const std::string &Name) {
  auto It = Env.find(Name);
  return It == Env.end() ? Interval::full() : It->second;
}

RangeEnv joinEnv(const RangeEnv &A, const RangeEnv &B) {
  RangeEnv Out;
  for (const auto &[K, V] : A)
    Out[K] = join(V, envGet(B, K));
  for (const auto &[K, V] : B)
    if (!A.count(K))
      Out[K] = join(V, Interval::full()); // absent in A: unknown there
  return Out;
}

bool envEq(const RangeEnv &A, const RangeEnv &B) {
  for (const auto &[K, V] : A)
    if (envGet(B, K) != V)
      return false;
  for (const auto &[K, V] : B)
    if (envGet(A, K) != V)
      return false;
  return true;
}

RangeEnv widenEnv(const RangeEnv &Old, const RangeEnv &New) {
  RangeEnv Out;
  for (const auto &[K, V] : New)
    Out[K] = widen(envGet(Old, K), V);
  return Out;
}

/// The shared abstract-interpretation walker. Collectors are optional; the
/// loop-body fixpoint runs with collection suppressed and makes one final
/// collecting pass under the stabilized head environment, so findings are
/// reported exactly once.
class RangeWalker {
public:
  RangeEnv Env;
  std::map<std::string, std::vector<int64_t>> Extents;

  // Optional collectors.
  BoundsReport *Report = nullptr;
  std::map<const ForStmt *, LoopRange> *Loops = nullptr;
  std::map<std::string, Interval> *Box = nullptr;
  const Block *StopAt = nullptr; ///< capture Env at this block's entry
  RangeEnv *StopEnvOut = nullptr;
  bool Stopped = false;

  void runProgram(const Program &P) {
    for (const auto &G : P.Globals)
      declStmt(*G);
    walkBlock(*P.Body);
  }

  void walkBlock(const Block &B) {
    if (Stopped)
      return;
    if (&B == StopAt) {
      if (StopEnvOut)
        *StopEnvOut = Env;
      Stopped = true;
      return;
    }
    std::string SavedRegion = CurRegion;
    if (!B.RegionName.empty())
      CurRegion = B.RegionName;
    for (const auto &S : B.Stmts) {
      walkStmt(*S);
      if (Stopped)
        break;
    }
    CurRegion = SavedRegion;
  }

private:
  bool Collect = true;
  std::vector<const ForStmt *> LoopStack;
  std::string CurRegion;
  support::SrcLoc CurLoc;

  void declStmt(const DeclStmt &D) {
    if (D.Init)
      checkSubscripts(*D.Init);
    if (D.isArray()) {
      Extents[D.Name] = D.Dims;
      return;
    }
    Env[D.Name] = D.Init ? evalRange(*D.Init, Env) : Interval::full();
  }

  void walkStmt(const Stmt &S) {
    if (Stopped)
      return;
    if (S.Loc.valid())
      CurLoc = S.Loc;
    switch (S.kind()) {
    case StmtKind::Block:
      walkBlock(*cast<Block>(&S));
      return;
    case StmtKind::Decl:
      declStmt(*cast<DeclStmt>(&S));
      return;
    case StmtKind::CallStmt:
      // Harness calls take whole arrays; MiniC has no scalar out-params, so
      // the scalar environment survives.
      checkSubscripts(*cast<CallStmt>(&S)->Call);
      return;
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      checkSubscripts(*A->Lhs);
      checkSubscripts(*A->Rhs);
      const auto *V = dyn_cast<VarRef>(A->Lhs.get());
      if (!V)
        return;
      Interval R = evalRange(*A->Rhs, Env);
      switch (A->Op) {
      case AssignOp::Set:
        Env[V->Name] = R;
        break;
      case AssignOp::Add:
        Env[V->Name] = rangeAdd(envGet(Env, V->Name), R);
        break;
      case AssignOp::Sub:
        Env[V->Name] = rangeSub(envGet(Env, V->Name), R);
        break;
      case AssignOp::Mul:
        Env[V->Name] = rangeMul(envGet(Env, V->Name), R);
        break;
      }
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      checkSubscripts(*I->Cond);
      RangeEnv Before = Env;
      walkBlock(*I->Then);
      if (Stopped)
        return;
      RangeEnv ThenOut = std::move(Env);
      RangeEnv ElseOut;
      if (I->Else) {
        Env = Before;
        walkBlock(*I->Else);
        if (Stopped)
          return;
        ElseOut = std::move(Env);
      } else {
        ElseOut = std::move(Before);
      }
      Env = joinEnv(ThenOut, ElseOut);
      return;
    }
    case StmtKind::For:
      forStmt(*cast<ForStmt>(&S));
      return;
    }
  }

  void forStmt(const ForStmt &F) {
    checkSubscripts(*F.Init);
    checkSubscripts(*F.Bound);
    Interval InitR = evalRange(*F.Init, Env);
    Interval BoundR = evalRange(*F.Bound, Env);
    Interval LimitR = F.Op == BoundOp::Le
                          ? rangeAdd(BoundR, Interval::point(1))
                          : BoundR;
    if (Collect && Loops)
      (*Loops)[&F] = LoopRange{InitR, LimitR};

    // Value interval of the induction variable over executed iterations.
    Interval VarR;
    if (InitR.Empty || LimitR.Empty) {
      VarR = Interval::none();
    } else if (F.Step > 0) {
      // satSub keeps a +inf limit saturated; empty when the loop cannot run.
      int64_t Top = satSub(LimitR.Hi, 1);
      // Stride refinement: with a pinned start the last executed value is
      // aligned to the step (a tile loop `for (it = 0; it < 16; it += 4)`
      // ends at 12, not 15 — the difference between proving a tiled
      // subscript and a spurious finding).
      if (F.Step > 1 && InitR.Lo == InitR.Hi && InitR.Lo != INT64_MIN &&
          Top != INT64_MAX && Top >= InitR.Lo) {
        __int128 Span = static_cast<__int128>(Top) - InitR.Lo;
        Top = static_cast<int64_t>(InitR.Lo + Span / F.Step * F.Step);
      }
      VarR = Interval::make(InitR.Lo, Top);
    } else if (F.Step < 0) {
      VarR = Interval::make(INT64_MIN, InitR.Hi);
    } else {
      VarR = Interval::full();
    }
    if (Collect && Box) {
      auto It = Box->find(F.Var);
      (*Box)[F.Var] = It == Box->end() ? VarR : join(It->second, VarR);
    }

    // Fixpoint over the body for loop-carried scalars, widening after a few
    // rounds so symbolic bounds terminate.
    RangeEnv Entry = Env;
    RangeEnv Head = Entry;
    Head[F.Var] = VarR;
    bool SavedCollect = Collect;
    Collect = false;
    RangeEnv BodyOut;
    for (int It = 0; It < 8; ++It) {
      BodyOut = runBody(F, Head);
      if (Stopped) {
        Collect = SavedCollect;
        return;
      }
      BodyOut[F.Var] = VarR; // induction var is single-assignment
      RangeEnv Joined = joinEnv(Head, BodyOut);
      if (envEq(Joined, Head))
        break;
      Head = It >= 2 ? widenEnv(Head, Joined) : std::move(Joined);
    }
    Collect = SavedCollect;

    // One collecting pass under the stabilized head environment.
    BodyOut = runBody(F, Head);
    if (Stopped)
      return;

    // After the loop: body effects joined with the never-ran case; the
    // variable holds its exit value (first value past the limit) or its
    // init when the loop never ran.
    Env = joinEnv(Entry, BodyOut);
    Interval After = Interval::full();
    if (F.Step > 0 && !LimitR.Empty && !InitR.Empty)
      After = join(InitR,
                   Interval::make(LimitR.Lo, satAdd(LimitR.Hi, F.Step - 1)));
    Env[F.Var] = After;
  }

  /// Walks F's body starting from \p Head, returning the post-body env.
  RangeEnv runBody(const ForStmt &F, const RangeEnv &Head) {
    RangeEnv Saved = std::move(Env);
    Env = Head;
    LoopStack.push_back(&F);
    walkBlock(*F.Body);
    LoopStack.pop_back();
    if (Stopped)
      return {};
    RangeEnv Out = std::move(Env);
    Env = std::move(Saved);
    return Out;
  }

  void checkSubscripts(const Expr &E) {
    if (!Collect || !Report)
      return;
    switch (E.kind()) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
    case ExprKind::VarRef:
      return;
    case ExprKind::Unary:
      checkSubscripts(*cast<UnaryExpr>(&E)->Operand);
      return;
    case ExprKind::Binary:
      checkSubscripts(*cast<BinaryExpr>(&E)->Lhs);
      checkSubscripts(*cast<BinaryExpr>(&E)->Rhs);
      return;
    case ExprKind::Call:
      for (const auto &A : cast<CallExpr>(&E)->Args)
        checkSubscripts(*A);
      return;
    case ExprKind::ArrayRef:
      break;
    }
    const auto *A = cast<ArrayRef>(&E);
    auto It = Extents.find(A->Name);
    for (size_t D = 0; D < A->Indices.size(); ++D) {
      const Expr &Idx = *A->Indices[D];
      checkSubscripts(Idx); // nested subscripts A[B[i]]
      if (It == Extents.end() || D >= It->second.size())
        continue; // unresolved name / rank mismatch: the verifier's domain
      ++Report->SubscriptsChecked;
      int64_t Extent = It->second[D];
      Interval R = evalRange(Idx, Env);
      if (R.Empty) { // access under a provably-empty loop never executes
        ++Report->Proven;
        continue;
      }
      bool LoOk = R.Lo >= 0;
      bool HiOk = R.Hi <= Extent - 1;
      if (LoOk && HiOk) {
        ++Report->Proven;
        continue;
      }
      SubscriptFinding F;
      F.K = ((!LoOk && R.Lo != INT64_MIN) || (!HiOk && R.Hi != INT64_MAX))
                ? SubscriptFinding::Kind::Violation
                : SubscriptFinding::Kind::Unproven;
      F.Definite = R.Lo > Extent - 1 || (R.Hi < 0 && R.Hi != INT64_MIN);
      F.Array = A->Name;
      F.Dim = static_cast<int>(D);
      F.Extent = Extent;
      F.IndexText = printExpr(Idx);
      F.Range = R;
      F.Loc = A->Loc.valid() ? A->Loc : CurLoc;
      F.Region = CurRegion;
      for (auto L = LoopStack.rbegin(); L != LoopStack.rend(); ++L) {
        if (referencesVar(Idx, (*L)->Var)) {
          F.LoopVar = (*L)->Var;
          F.LoopLoc = (*L)->Loc;
          break;
        }
      }
      Report->Findings.push_back(std::move(F));
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

std::string SubscriptFinding::witness() const {
  std::string S;
  S += K == Kind::Violation ? "bounds violation: " : "bounds unproven: ";
  S += "subscript " + std::to_string(Dim + 1) + " of `" + Array + "` (`" +
       IndexText + "`) ranges over " + Range.str() +
       " but the dimension has extent " + std::to_string(Extent) +
       " (valid 0.." + std::to_string(Extent - 1) + ")";
  if (!LoopVar.empty()) {
    S += "; indexed by loop `" + LoopVar + "`";
    if (LoopLoc.valid())
      S += " at " + LoopLoc.str();
  }
  return S;
}

std::string SubscriptFinding::render() const {
  std::string S;
  if (Loc.valid())
    S += Loc.str() + ": ";
  S += witness();
  if (!Region.empty())
    S += " [region `" + Region + "`]";
  return S;
}

int BoundsReport::violations() const {
  int N = 0;
  for (const SubscriptFinding &F : Findings)
    N += F.K == SubscriptFinding::Kind::Violation;
  return N;
}

int BoundsReport::unproven() const {
  int N = 0;
  for (const SubscriptFinding &F : Findings)
    N += F.K == SubscriptFinding::Kind::Unproven;
  return N;
}

std::string BoundsReport::render() const {
  std::string S = "bounds: " + std::to_string(SubscriptsChecked) +
                  " subscripts checked, " + std::to_string(Proven) +
                  " proven in bounds, " + std::to_string(violations()) +
                  " violations, " + std::to_string(unproven()) + " unproven";
  for (const SubscriptFinding &F : Findings)
    S += "\n  " + F.render();
  return S;
}

BoundsReport checkBounds(const Program &P) {
  BoundsReport Report;
  RangeWalker W;
  W.Report = &Report;
  W.runProgram(P);
  return Report;
}

std::map<const ForStmt *, LoopRange> loopBoundRanges(const Program &P) {
  std::map<const ForStmt *, LoopRange> Out;
  RangeWalker W;
  W.Loops = &Out;
  W.runProgram(P);
  return Out;
}

RangeEnv envAtBlock(const Program &P, const Block *Target) {
  RangeEnv Out;
  RangeWalker W;
  W.StopAt = Target;
  W.StopEnvOut = &Out;
  W.runProgram(P);
  return Out;
}

std::map<std::string, Interval> iterationBox(const Block &B,
                                             const RangeEnv &Base) {
  std::map<std::string, Interval> Out;
  RangeWalker W;
  W.Env = Base;
  W.Box = &Out;
  W.walkBlock(B);
  return Out;
}

std::map<std::string, std::vector<int64_t>> arrayExtents(const Program &P) {
  std::map<std::string, std::vector<int64_t>> Out;
  for (const auto &G : P.Globals)
    if (G->isArray())
      Out[G->Name] = G->Dims;
  forEachStmt(*P.Body, [&](const Stmt &S) {
    if (const auto *D = dyn_cast<DeclStmt>(&S))
      if (D->isArray())
        Out[D->Name] = D->Dims;
  });
  return Out;
}

} // namespace analysis
} // namespace locus
