//===- ParallelSafety.cpp - OpenMP race detection & classification ----------===//

#include "src/analysis/ParallelSafety.h"

#include "src/analysis/Affine.h"
#include "src/cir/AstUtils.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace locus {
namespace analysis {

using namespace cir;

const char *varClassName(VarClass C) {
  switch (C) {
  case VarClass::Private:
    return "private";
  case VarClass::FirstPrivate:
    return "firstprivate";
  case VarClass::SharedReadOnly:
    return "shared-read-only";
  case VarClass::Shared:
    return "shared";
  case VarClass::Reduction:
    return "reduction";
  case VarClass::Racy:
    return "racy";
  }
  return "?";
}

const char *redOpName(RedOp O) {
  switch (O) {
  case RedOp::Add:
    return "+";
  case RedOp::Mul:
    return "*";
  case RedOp::Min:
    return "min";
  case RedOp::Max:
    return "max";
  }
  return "?";
}

namespace {

const char *depKindName(DepKind K) {
  switch (K) {
  case DepKind::Flow:
    return "flow";
  case DepKind::Anti:
    return "anti";
  case DepKind::Output:
    return "output";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Direction-vector refinement for tile loops
//===----------------------------------------------------------------------===//

/// True when loop \p Q's iteration windows for distinct values of \p P.Var
/// are disjoint and increasing: Q starts exactly at P.Var and, per the upper
/// bound, never reaches the window of the next P iteration. This is the
/// shape rectangular tiling produces (`for (i = it; i < min(N, it + T); ...)`
/// under `for (it = ...; it += T)`), where the tile variable appears in no
/// subscript and would otherwise stay a conservative '*'.
bool controlsDisjointWindow(const ForStmt &P, const ForStmt &Q) {
  if (P.Step <= 0 || Q.Step <= 0)
    return false;
  const auto *InitVar = dyn_cast<VarRef>(Q.Init.get());
  if (!InitVar || InitVar->Name != P.Var)
    return false;
  // Find an upper-bound arm of the (possibly min-clamped) bound that is
  // affine in P.Var with coefficient 1 and no other variables; the true
  // bound is no larger than any min arm, so using one arm is sound.
  const std::function<bool(const Expr &)> ArmOk = [&](const Expr &E) -> bool {
    if (const auto *C = dyn_cast<CallExpr>(&E)) {
      if (C->Callee == "min")
        for (const auto &A : C->Args)
          if (ArmOk(*A))
            return true;
      return false;
    }
    std::optional<AffineExpr> Aff = toAffine(E);
    if (!Aff)
      return false;
    if (Aff->coeffs().size() != 1 || Aff->coeff(P.Var) != 1)
      return false;
    // Q.Var stays below P.Var + W (exclusive); disjoint when the window
    // never reaches the next tile's start at P.Var + P.Step.
    int64_t W = Q.Op == BoundOp::Lt ? Aff->constant() : Aff->constant() + 1;
    return W <= P.Step;
  };
  return ArmOk(*Q.Bound);
}

/// Refines conservative '*' entries of \p D's direction vector: when an
/// inner common loop proven '=' iterates a window that is disjoint across
/// the outer loop's iterations, equal inner values force equal outer values,
/// so the outer entry is '=' too. Runs to a fixpoint so chained tilings
/// (L2 tiles inside L1 tiles) propagate outward.
std::vector<char> refinedDirs(const Dependence &D) {
  std::vector<char> Dirs = D.Dirs;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t P = 0; P < Dirs.size(); ++P) {
      if (Dirs[P] != '*')
        continue;
      for (size_t Q = P + 1; Q < Dirs.size(); ++Q) {
        if (Dirs[Q] != '=')
          continue;
        if (controlsDisjointWindow(*D.CommonLoops[P], *D.CommonLoops[Q])) {
          Dirs[P] = '=';
          Changed = true;
          break;
        }
      }
    }
  }
  return Dirs;
}

/// mayBeCarriedBy(0) over an already-refined direction vector.
bool carriedByParallelDim(const std::vector<char> &Dirs) {
  return !Dirs.empty() && (Dirs[0] == '<' || Dirs[0] == '*');
}

std::string renderDirs(const std::vector<char> &Dirs) {
  std::string Out = "(";
  for (size_t I = 0; I < Dirs.size(); ++I) {
    if (I)
      Out += ",";
    Out += Dirs[I];
  }
  Out += ")";
  return Out;
}

//===----------------------------------------------------------------------===//
// Reduction recognition
//===----------------------------------------------------------------------===//

/// Counts occurrences of \p Name as a bare positively-signed term of the
/// additive (+/-) chain of \p E; bumps \p Other for any occurrence of Name
/// elsewhere in the chain's leaves.
void scanAddChain(const Expr &E, const std::string &Name, bool Negated,
                  int &Bare, int &Other) {
  if (const auto *B = dyn_cast<BinaryExpr>(&E)) {
    if (B->Op == BinOp::Add || B->Op == BinOp::Sub) {
      scanAddChain(*B->Lhs, Name, Negated, Bare, Other);
      scanAddChain(*B->Rhs, Name, Negated != (B->Op == BinOp::Sub), Bare,
                   Other);
      return;
    }
  }
  if (const auto *V = dyn_cast<VarRef>(&E)) {
    if (V->Name == Name) {
      if (!Negated)
        ++Bare;
      else
        ++Other;
    }
    return;
  }
  if (referencesVar(E, Name))
    ++Other;
}

void scanMulChain(const Expr &E, const std::string &Name, int &Bare,
                  int &Other) {
  if (const auto *B = dyn_cast<BinaryExpr>(&E)) {
    if (B->Op == BinOp::Mul) {
      scanMulChain(*B->Lhs, Name, Bare, Other);
      scanMulChain(*B->Rhs, Name, Bare, Other);
      return;
    }
  }
  if (const auto *V = dyn_cast<VarRef>(&E)) {
    if (V->Name == Name)
      ++Bare;
    return;
  }
  if (referencesVar(E, Name))
    ++Other;
}

/// Leaves of a nested min/min (or max/max) call chain.
void scanMinMaxChain(const Expr &E, const std::string &Callee,
                     const std::string &Name, int &Bare, int &Other) {
  if (const auto *C = dyn_cast<CallExpr>(&E)) {
    if (C->Callee == Callee) {
      for (const auto &A : C->Args)
        scanMinMaxChain(*A, Callee, Name, Bare, Other);
      return;
    }
  }
  if (const auto *V = dyn_cast<VarRef>(&E)) {
    if (V->Name == Name)
      ++Bare;
    return;
  }
  if (referencesVar(E, Name))
    ++Other;
}

/// Classifies one write to scalar \p Name as a reduction update:
///   x += e / x -= e            -> +     x *= e -> *
///   x = x + e (any +/- chain with x appearing once, positively)
///   x = x * e (any * chain with x appearing once)
///   x = min(x, e) / max(x, e)  (nested same-op chains allowed)
/// Returns nullopt when the write is not a reduction-form update.
std::optional<RedOp> reductionForm(const AssignStmt &A,
                                   const std::string &Name) {
  if (A.Op == AssignOp::Add || A.Op == AssignOp::Sub)
    return referencesVar(*A.Rhs, Name) ? std::nullopt
                                       : std::optional<RedOp>(RedOp::Add);
  if (A.Op == AssignOp::Mul)
    return referencesVar(*A.Rhs, Name) ? std::nullopt
                                       : std::optional<RedOp>(RedOp::Mul);
  // A.Op == Set: inspect the RHS shape.
  int Bare = 0, Other = 0;
  scanAddChain(*A.Rhs, Name, /*Negated=*/false, Bare, Other);
  if (Bare == 1 && Other == 0)
    return RedOp::Add;
  Bare = Other = 0;
  scanMulChain(*A.Rhs, Name, Bare, Other);
  if (Bare == 1 && Other == 0)
    return RedOp::Mul;
  if (const auto *C = dyn_cast<CallExpr>(A.Rhs.get())) {
    if (C->Callee == "min" || C->Callee == "max") {
      Bare = Other = 0;
      scanMinMaxChain(*C, C->Callee, Name, Bare, Other);
      if (Bare == 1 && Other == 0)
        return C->Callee == "min" ? RedOp::Min : RedOp::Max;
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Body scan
//===----------------------------------------------------------------------===//

/// Syntactic facts about the loop body: which names are loop indices, which
/// are declared per-iteration, which scalars/arrays are read or written and
/// where.
struct BodyFacts {
  std::set<std::string> LoopVars;      ///< all induction vars, root included
  std::set<std::string> InnerLoopVars; ///< induction vars below the root
  std::set<std::string> DeclaredInBody;
  std::set<std::string> ScalarNames, ArrayNames;
  std::set<std::string> ScalarWritten, ArrayWritten;
  /// Every assignment whose LHS is scalar Name.
  std::map<std::string, std::vector<const AssignStmt *>> ScalarWrites;
  /// First write location per name, for witnesses.
  std::map<std::string, support::SrcLoc> FirstWriteLoc;

  void noteExprReads(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::VarRef: {
      const auto &V = *cast<VarRef>(&E);
      if (!LoopVars.count(V.Name))
        ScalarNames.insert(V.Name);
      return;
    }
    case ExprKind::ArrayRef: {
      const auto &A = *cast<ArrayRef>(&E);
      ArrayNames.insert(A.Name);
      for (const auto &I : A.Indices)
        noteExprReads(*I);
      return;
    }
    case ExprKind::Binary:
      noteExprReads(*cast<BinaryExpr>(&E)->Lhs);
      noteExprReads(*cast<BinaryExpr>(&E)->Rhs);
      return;
    case ExprKind::Unary:
      noteExprReads(*cast<UnaryExpr>(&E)->Operand);
      return;
    case ExprKind::Call:
      for (const auto &A : cast<CallExpr>(&E)->Args)
        noteExprReads(*A);
      return;
    default:
      return;
    }
  }

  void noteWrite(const Expr &Lhs, support::SrcLoc Loc) {
    if (const auto *V = dyn_cast<VarRef>(&Lhs)) {
      if (LoopVars.count(V->Name))
        return;
      ScalarNames.insert(V->Name);
      ScalarWritten.insert(V->Name);
      if (!FirstWriteLoc.count(V->Name))
        FirstWriteLoc[V->Name] = Loc;
    } else if (const auto *A = dyn_cast<ArrayRef>(&Lhs)) {
      ArrayNames.insert(A->Name);
      ArrayWritten.insert(A->Name);
      if (!FirstWriteLoc.count(A->Name))
        FirstWriteLoc[A->Name] = Loc;
      for (const auto &I : A->Indices)
        noteExprReads(*I);
    }
  }

  void scanStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Block:
      for (const auto &C : cast<Block>(&S)->Stmts)
        scanStmt(*C);
      return;
    case StmtKind::For: {
      const auto &F = *cast<ForStmt>(&S);
      noteExprReads(*F.Init);
      noteExprReads(*F.Bound);
      for (const auto &C : F.Body->Stmts)
        scanStmt(*C);
      return;
    }
    case StmtKind::If: {
      const auto &I = *cast<IfStmt>(&S);
      noteExprReads(*I.Cond);
      for (const auto &C : I.Then->Stmts)
        scanStmt(*C);
      if (I.Else)
        for (const auto &C : I.Else->Stmts)
          scanStmt(*C);
      return;
    }
    case StmtKind::Assign: {
      const auto &A = *cast<AssignStmt>(&S);
      noteWrite(*A.Lhs, A.Loc);
      if (const auto *V = dyn_cast<VarRef>(A.Lhs.get()))
        ScalarWrites[V->Name].push_back(&A);
      noteExprReads(*A.Rhs);
      return;
    }
    case StmtKind::Decl: {
      const auto &D = *cast<DeclStmt>(&S);
      DeclaredInBody.insert(D.Name);
      if (D.isArray())
        ArrayNames.insert(D.Name);
      else
        ScalarNames.insert(D.Name);
      if (D.Init)
        noteExprReads(*D.Init);
      return;
    }
    case StmtKind::CallStmt:
      noteExprReads(*cast<CallStmt>(&S)->Call);
      return;
    }
  }

  static BodyFacts collect(const ForStmt &Root) {
    BodyFacts F;
    F.LoopVars.insert(Root.Var);
    forEachStmt(Root, [&](const Stmt &S) {
      if (auto *L = dyn_cast<ForStmt>(&S))
        if (L != &Root) {
          F.LoopVars.insert(L->Var);
          F.InnerLoopVars.insert(L->Var);
        }
    });
    for (const auto &S : Root.Body->Stmts)
      F.scanStmt(*S);
    return F;
  }
};

/// True when scalar \p Name is certainly written before any read in every
/// iteration: the first top-level body statement mentioning it is a plain
/// assignment `Name = e` with e not reading Name. (A nested first access
/// under an if or inner loop may not execute, so it does not qualify.)
bool writtenBeforeRead(const ForStmt &For, const std::string &Name) {
  for (const auto &S : For.Body->Stmts) {
    if (!stmtReferencesVar(*S, Name))
      continue;
    const auto *A = dyn_cast<AssignStmt>(S.get());
    if (!A)
      return false;
    const auto *V = dyn_cast<VarRef>(A->Lhs.get());
    return V && V->Name == Name && A->Op == AssignOp::Set &&
           !referencesVar(*A->Rhs, Name);
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

std::string RaceWitness::render() const {
  std::ostringstream Out;
  if (!Note.empty()) {
    Out << Note;
  } else {
    Out << "loop-carried " << depKindName(Kind) << " dependence on "
        << (IsScalar ? "scalar '" : "'") << Var << "'";
    if (!Dirs.empty())
      Out << ", direction " << Dirs;
  }
  if (SrcLoc.valid()) {
    bool DistinctDst =
        DstLoc.valid() && (DstLoc.Line != SrcLoc.Line || DstLoc.Col != SrcLoc.Col);
    Out << " [" << SrcLoc.str()
        << (DistinctDst ? " -> " + DstLoc.str() : std::string()) << "]";
  }
  return Out.str();
}

std::string ParallelSafetyReport::summary() const {
  switch (Verdict) {
  case ParallelVerdict::Safe:
    return "safe: no dependence carried by loop '" + LoopVar + "'";
  case ParallelVerdict::Racy:
    return "racy: " +
           (Witnesses.empty() ? std::string("conflict detected")
                              : Witnesses.front().render());
  case ParallelVerdict::Unknown:
    return "unknown: " +
           (WhyUnknown.empty() ? std::string("cannot prove parallel safety")
                               : WhyUnknown);
  }
  return "";
}

std::string ParallelSafetyReport::clauses() const {
  if (Verdict != ParallelVerdict::Safe)
    return "";
  std::vector<std::string> Private, FirstPrivate;
  std::map<std::string, std::vector<std::string>> Reductions;
  for (const VarInfo &V : Vars) {
    if (V.DeclaredInLoop)
      continue; // already per-iteration storage
    if (V.Name == LoopVar)
      continue; // the worksharing construct privatizes its own index
    if (V.Class == VarClass::Private)
      Private.push_back(V.Name);
    else if (V.Class == VarClass::FirstPrivate)
      FirstPrivate.push_back(V.Name);
    else if (V.Class == VarClass::Reduction && V.Reduction)
      Reductions[redOpName(*V.Reduction)].push_back(V.Name);
  }
  auto Join = [](const std::vector<std::string> &Names) {
    std::string Out;
    for (size_t I = 0; I < Names.size(); ++I)
      Out += (I ? "," : "") + Names[I];
    return Out;
  };
  std::string Out;
  if (!Private.empty())
    Out += "private(" + Join(Private) + ")";
  if (!FirstPrivate.empty())
    Out += std::string(Out.empty() ? "" : " ") + "firstprivate(" +
           Join(FirstPrivate) + ")";
  for (const auto &[Op, Names] : Reductions)
    Out += std::string(Out.empty() ? "" : " ") + "reduction(" + Op + ":" +
           Join(Names) + ")";
  return Out;
}

//===----------------------------------------------------------------------===//
// The analysis
//===----------------------------------------------------------------------===//

bool isOmpParallelForPragma(const std::string &Text) {
  return startsWith(trimString(Text), "omp parallel for");
}

bool hasOmpParallelFor(const cir::ForStmt &For) {
  return std::any_of(For.Pragmas.begin(), For.Pragmas.end(),
                     isOmpParallelForPragma);
}

ParallelSafetyReport analyzeParallelLoop(const ForStmt &For) {
  ParallelSafetyReport Rep;
  Rep.LoopVar = For.Var;
  Rep.LoopLoc = For.Loc;

  BodyFacts Facts = BodyFacts::collect(For);

  support::Diag Why;
  std::optional<DependenceInfo> Deps = DependenceInfo::compute(For, &Why);
  bool DepsAvailable = Deps.has_value();
  if (!DepsAvailable)
    Rep.WhyUnknown = Why.Message.empty()
                         ? "dependence analysis unavailable"
                         : Why.Message +
                               (Why.Loc.valid() ? " [" + Why.Loc.str() + "]"
                                                : std::string());

  // Dependences carried by the parallel dimension, per variable name. '*'
  // entries refined through the tile-window rule first, so parallelizing a
  // tile-controlling loop is not misreported as racy.
  std::map<std::string, std::vector<const Dependence *>> Carried;
  std::map<const Dependence *, std::vector<char>> DirsOf;
  if (DepsAvailable) {
    for (const Dependence &D : Deps->deps()) {
      std::vector<char> Dirs = refinedDirs(D);
      if (carriedByParallelDim(Dirs)) {
        Carried[D.Array].push_back(&D);
        DirsOf[&D] = std::move(Dirs);
      }
    }
  }

  auto makeWitness = [&](const Dependence &D) {
    RaceWitness W;
    W.Var = D.Array;
    W.Kind = D.Kind;
    W.IsScalar = D.IsScalar;
    W.Dirs = renderDirs(DirsOf[&D]);
    if (const Stmt *S = Deps->leafStmt(D.SrcStmt))
      W.SrcLoc = S->Loc;
    if (const Stmt *S = Deps->leafStmt(D.DstStmt))
      W.DstLoc = S->Loc;
    return W;
  };

  // --- Loop indices -------------------------------------------------------
  // The parallel index is privatized by OpenMP itself; inner indices are
  // classic private variables (in C they are usually declared outside the
  // nest, so they need an explicit clause).
  {
    VarInfo V;
    V.Name = For.Var;
    V.Class = VarClass::Private;
    V.Why = "the parallel loop's own index (privatized by OpenMP)";
    Rep.Vars.push_back(std::move(V));
  }
  for (const std::string &Name : Facts.InnerLoopVars) {
    VarInfo V;
    V.Name = Name;
    V.Class = VarClass::Private;
    V.Why = "inner loop index";
    Rep.Vars.push_back(std::move(V));
  }

  // --- Scalars ------------------------------------------------------------
  for (const std::string &Name : Facts.ScalarNames) {
    VarInfo V;
    V.Name = Name;
    V.IsArray = false;
    V.DeclaredInLoop = Facts.DeclaredInBody.count(Name) > 0;

    bool Written =
        Facts.ScalarWritten.count(Name) || Facts.DeclaredInBody.count(Name);
    if (!Written) {
      V.Class = VarClass::FirstPrivate;
      V.Why = "read-only; captures its value from before the loop";
      Rep.Vars.push_back(std::move(V));
      continue;
    }
    if (V.DeclaredInLoop) {
      V.Class = VarClass::Private;
      V.Why = "declared inside the loop body (fresh per iteration)";
      Rep.Vars.push_back(std::move(V));
      continue;
    }

    // Reduction: every write is an `x = x op e` update with one consistent
    // operator, and x is read nowhere else in the body.
    const std::vector<const AssignStmt *> &Writes = Facts.ScalarWrites[Name];
    std::optional<RedOp> Op;
    bool AllReduction = !Writes.empty();
    for (const AssignStmt *A : Writes) {
      std::optional<RedOp> ThisOp = reductionForm(*A, Name);
      if (!ThisOp || (Op && *Op != *ThisOp)) {
        AllReduction = false;
        break;
      }
      Op = ThisOp;
    }
    if (AllReduction) {
      // Any read outside the reduction updates themselves disqualifies.
      bool ReadElsewhere = false;
      const std::function<void(const Stmt &)> Check = [&](const Stmt &S) {
        if (const auto *A = dyn_cast<AssignStmt>(&S)) {
          if (std::find(Writes.begin(), Writes.end(), A) != Writes.end())
            return; // its single RHS occurrence is the reduction read
          if (referencesVar(*A->Lhs, Name) || referencesVar(*A->Rhs, Name))
            ReadElsewhere = true;
          return;
        }
        if (stmtReferencesVar(S, Name) && !isa<Block>(&S) &&
            !isa<ForStmt>(&S) && !isa<IfStmt>(&S)) {
          ReadElsewhere = true;
          return;
        }
        if (const auto *B = dyn_cast<Block>(&S)) {
          for (const auto &C : B->Stmts)
            Check(*C);
        } else if (const auto *F = dyn_cast<ForStmt>(&S)) {
          if (referencesVar(*F->Init, Name) || referencesVar(*F->Bound, Name))
            ReadElsewhere = true;
          for (const auto &C : F->Body->Stmts)
            Check(*C);
        } else if (const auto *I = dyn_cast<IfStmt>(&S)) {
          if (referencesVar(*I->Cond, Name))
            ReadElsewhere = true;
          for (const auto &C : I->Then->Stmts)
            Check(*C);
          if (I->Else)
            for (const auto &C : I->Else->Stmts)
              Check(*C);
        }
      };
      for (const auto &S : For.Body->Stmts)
        Check(*S);
      if (!ReadElsewhere) {
        V.Class = VarClass::Reduction;
        V.Reduction = Op;
        V.Why = std::string("updated only through `x = x ") +
                redOpName(*Op) + " e` chains";
        Rep.Vars.push_back(std::move(V));
        continue;
      }
    }

    if (writtenBeforeRead(For, Name)) {
      V.Class = VarClass::Private;
      V.Why = "written before read in every iteration";
      Rep.Vars.push_back(std::move(V));
      continue;
    }

    // A scalar written in the body that is neither private nor a reduction
    // is a conflict between any two iterations.
    V.Class = VarClass::Racy;
    V.Why = "written without private or reduction form";
    RaceWitness W;
    bool HaveDep = false;
    if (DepsAvailable) {
      auto It = Carried.find(Name);
      if (It != Carried.end() && !It->second.empty()) {
        W = makeWitness(*It->second.front());
        HaveDep = true;
      }
    }
    if (!HaveDep) {
      W.Var = Name;
      W.IsScalar = true;
      W.Note = "scalar '" + Name +
               "' is assigned in the loop body without private or "
               "reduction form";
      auto It = Facts.FirstWriteLoc.find(Name);
      if (It != Facts.FirstWriteLoc.end())
        W.SrcLoc = It->second;
    }
    Rep.Witnesses.push_back(std::move(W));
    Rep.Vars.push_back(std::move(V));
  }

  // --- Arrays -------------------------------------------------------------
  for (const std::string &Name : Facts.ArrayNames) {
    VarInfo V;
    V.Name = Name;
    V.IsArray = true;
    V.DeclaredInLoop = Facts.DeclaredInBody.count(Name) > 0;

    if (!Facts.ArrayWritten.count(Name)) {
      V.Class = VarClass::SharedReadOnly;
      V.Why = "only read inside the loop";
      Rep.Vars.push_back(std::move(V));
      continue;
    }
    if (V.DeclaredInLoop) {
      V.Class = VarClass::Private;
      V.Why = "declared inside the loop body (fresh per iteration)";
      Rep.Vars.push_back(std::move(V));
      continue;
    }
    if (!DepsAvailable) {
      V.Class = VarClass::Shared;
      V.Why = "written; dependences unavailable, safety unproven";
      Rep.Vars.push_back(std::move(V));
      continue;
    }
    auto It = Carried.find(Name);
    if (It == Carried.end()) {
      V.Class = VarClass::Shared;
      V.Why = "written; no dependence carried by the parallel loop";
      Rep.Vars.push_back(std::move(V));
      continue;
    }
    V.Class = VarClass::Racy;
    V.Why = "dependence carried by the parallel loop";
    for (const Dependence *D : It->second)
      Rep.Witnesses.push_back(makeWitness(*D));
    Rep.Vars.push_back(std::move(V));
  }

  bool AnyRacy =
      std::any_of(Rep.Vars.begin(), Rep.Vars.end(),
                  [](const VarInfo &V) { return V.Class == VarClass::Racy; });
  if (AnyRacy)
    Rep.Verdict = ParallelVerdict::Racy;
  else if (!DepsAvailable)
    Rep.Verdict = ParallelVerdict::Unknown;
  else
    Rep.Verdict = ParallelVerdict::Safe;
  return Rep;
}

int annotateOmpClauses(Program &P) {
  int Annotated = 0;
  const std::function<void(Stmt &)> Visit = [&](Stmt &S) {
    auto *For = dyn_cast<ForStmt>(&S);
    if (For && hasOmpParallelFor(*For)) {
      ParallelSafetyReport Rep = analyzeParallelLoop(*For);
      std::string Clauses = Rep.clauses();
      if (!Clauses.empty()) {
        for (std::string &Text : For->Pragmas) {
          if (!isOmpParallelForPragma(Text) ||
              Text.find("private(") != std::string::npos ||
              Text.find("reduction(") != std::string::npos)
            continue;
          Text += " " + Clauses;
          ++Annotated;
        }
      }
    }
  };
  forEachStmt(*P.Body, Visit);
  return Annotated;
}

} // namespace analysis
} // namespace locus
