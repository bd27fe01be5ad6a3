//===- Verifier.cpp - CIR structural/semantic verifier ---------------------===//

#include "src/analysis/Verifier.h"

#include "src/analysis/RangeAnalysis.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"

#include <map>
#include <set>
#include <vector>

namespace locus {
namespace analysis {

namespace {

using namespace cir;

/// Walks the program checking scoping, induction-variable and rank
/// invariants. Scopes map a name to its array rank (0 for scalars).
class ProgramChecker {
public:
  ProgramChecker(const Program &P, support::DiagEngine &Diags)
      : Prog(P), Diags(Diags) {}

  void run() {
    Scopes.emplace_back();
    for (const auto &G : Prog.Globals)
      declare(*G);
    checkBlock(*Prog.Body, /*NewScope=*/false);
    Scopes.pop_back();
    checkRegionLabels();
  }

private:
  void declare(const DeclStmt &D) {
    Scopes.back()[D.Name] = static_cast<int>(D.Dims.size());
  }

  const int *lookup(const std::string &Name) const {
    for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
      auto Found = It->find(Name);
      if (Found != It->end())
        return &Found->second;
    }
    return nullptr;
  }

  support::SrcLoc locOf(const Expr &E) const {
    return E.Loc.valid() ? E.Loc : CurStmtLoc;
  }

  void checkExpr(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::IntLit:
    case ExprKind::FloatLit:
      return;
    case ExprKind::VarRef: {
      const auto *V = cast<VarRef>(&E);
      // Whole-array references (harness call arguments) resolve like any
      // other name; rank misuse of a bare name is not flagged here.
      if (!lookup(V->Name))
        Diags.error(locOf(E), CurRegion,
                    "identifier '" + V->Name +
                        "' does not resolve to any declaration");
      return;
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      if (const int *Rank = lookup(A->Name)) {
        if (*Rank == 0)
          Diags.error(locOf(E), CurRegion,
                      "scalar '" + A->Name + "' is subscripted like an array");
        else if (*Rank != static_cast<int>(A->Indices.size()))
          Diags.error(locOf(E), CurRegion,
                      "array '" + A->Name + "' is accessed with " +
                          std::to_string(A->Indices.size()) +
                          " subscripts but declared with rank " +
                          std::to_string(*Rank));
      } else {
        Diags.error(locOf(E), CurRegion,
                    "array '" + A->Name +
                        "' does not resolve to any declaration");
      }
      for (const auto &I : A->Indices)
        checkExpr(*I);
      return;
    }
    case ExprKind::Binary:
      checkExpr(*cast<BinaryExpr>(&E)->Lhs);
      checkExpr(*cast<BinaryExpr>(&E)->Rhs);
      return;
    case ExprKind::Unary:
      checkExpr(*cast<UnaryExpr>(&E)->Operand);
      return;
    case ExprKind::Call:
      // Callee names are intrinsics/harness functions known to the
      // evaluator; only the arguments are checked.
      for (const auto &A : cast<CallExpr>(&E)->Args)
        checkExpr(*A);
      return;
    }
  }

  void checkBlock(const Block &B, bool NewScope = true) {
    if (NewScope)
      Scopes.emplace_back();
    std::string SavedRegion = CurRegion;
    if (!B.RegionName.empty())
      CurRegion = B.RegionName;
    for (const auto &S : B.Stmts)
      checkStmt(*S);
    CurRegion = SavedRegion;
    if (NewScope)
      Scopes.pop_back();
  }

  void checkStmt(const Stmt &S) {
    if (S.Loc.valid())
      CurStmtLoc = S.Loc;
    support::SrcLoc Loc = S.Loc.valid() ? S.Loc : CurStmtLoc;
    switch (S.kind()) {
    case StmtKind::Block: {
      // The parser groups multi-declarator statements ("double a, b;") into
      // a synthetic Block of DeclStmts; those declarations belong to the
      // ENCLOSING scope, so declaration-only blocks are scope-transparent.
      const auto *B = cast<Block>(&S);
      bool DeclsOnly = !B->Stmts.empty();
      for (const auto &Sub : B->Stmts)
        DeclsOnly = DeclsOnly && isa<DeclStmt>(Sub.get());
      checkBlock(*B, /*NewScope=*/!DeclsOnly);
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      // Init/Bound are evaluated outside the loop's scope.
      checkExpr(*F->Init);
      checkExpr(*F->Bound);
      if (ActiveInductionVars.count(F->Var))
        Diags.error(Loc, CurRegion,
                    "induction variable '" + F->Var +
                        "' is redefined by a nested loop");
      Scopes.emplace_back();
      Scopes.back()[F->Var] = 0;
      bool Inserted = ActiveInductionVars.insert(F->Var).second;
      checkBlock(*F->Body, /*NewScope=*/false);
      if (Inserted)
        ActiveInductionVars.erase(F->Var);
      Scopes.pop_back();
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      checkExpr(*I->Cond);
      checkBlock(*I->Then);
      if (I->Else)
        checkBlock(*I->Else);
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      if (const auto *V = dyn_cast<VarRef>(A->Lhs.get()))
        if (ActiveInductionVars.count(V->Name))
          Diags.error(Loc, CurRegion,
                      "induction variable '" + V->Name +
                          "' is reassigned inside its loop body");
      checkExpr(*A->Lhs);
      checkExpr(*A->Rhs);
      return;
    }
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      if (ActiveInductionVars.count(D->Name))
        Diags.error(Loc, CurRegion,
                    "induction variable '" + D->Name +
                        "' is shadowed by a declaration inside its loop");
      if (D->Init)
        checkExpr(*D->Init);
      declare(*D);
      return;
    }
    case StmtKind::CallStmt:
      checkExpr(*cast<CallStmt>(&S)->Call);
      return;
    }
  }

  void checkRegionLabels() {
    std::map<std::string, int> Seen;
    forEachStmt(*Prog.Body, [&](const Stmt &S) {
      const auto *B = dyn_cast<Block>(&S);
      if (!B || B->RegionName.empty())
        return;
      support::SrcLoc Loc = B->Loc;
      if (++Seen[B->RegionName] == 2)
        Diags.warning(Loc, B->RegionName,
                      "region label '" + B->RegionName +
                          "' is not unique; transformations apply to every "
                          "instance");
      if (B->Stmts.empty())
        Diags.warning(Loc, B->RegionName,
                      "region '" + B->RegionName +
                          "' maps to no live statements");
    });
  }

  const Program &Prog;
  support::DiagEngine &Diags;
  std::vector<std::map<std::string, int>> Scopes;
  std::set<std::string> ActiveInductionVars;
  std::string CurRegion;
  support::SrcLoc CurStmtLoc;
};

void checkRoundTrip(const Program &P, support::DiagEngine &Diags) {
  std::string Text = printProgram(P);
  Expected<std::unique_ptr<Program>> Reparsed = parseProgram(Text);
  if (!Reparsed.ok()) {
    Diags.error(support::SrcLoc{}, "",
                "unparse→reparse round trip failed to parse: " +
                    Reparsed.message());
    return;
  }
  if (!programEquals(P, **Reparsed))
    Diags.error(support::SrcLoc{}, "",
                "unparse→reparse round trip does not reproduce the program");
}

/// Range-analysis cross-checks of a transformed region against its
/// pre-transform clone: the transformed nest's iteration-space box must stay
/// contained in the original's (per loop variable that survives with its
/// name; generated tile/skew variables are new names and are skipped), and no
/// subscript may become *definitely* out of bounds (every point of its
/// interval outside the extent). May-out-of-bounds intervals are NOT errors
/// here: interval arithmetic loses cross-variable correlation (e.g. skewed
/// subscripts), so only definite findings indict the rewrite.
void checkIterationSpace(const Program &P, const Block &Region,
                         const Block &Before, support::DiagEngine &Diags) {
  analysis::RangeEnv Base = analysis::envAtBlock(P, &Region);
  std::map<std::string, analysis::Interval> AfterBox =
      analysis::iterationBox(Region, Base);
  std::map<std::string, analysis::Interval> BeforeBox =
      analysis::iterationBox(Before, Base);
  support::SrcLoc Loc = Region.Loc;
  if (!Loc.valid() && !Region.Stmts.empty())
    Loc = Region.Stmts.front()->Loc;
  for (const auto &[Var, After] : AfterBox) {
    auto It = BeforeBox.find(Var);
    if (It == BeforeBox.end() || After.Empty)
      continue;
    const analysis::Interval &B4 = It->second;
    bool LoViol =
        B4.Lo != INT64_MIN && After.Lo != INT64_MIN && After.Lo < B4.Lo;
    bool HiViol =
        B4.Hi != INT64_MAX && After.Hi != INT64_MAX && After.Hi > B4.Hi;
    if (LoViol || HiViol)
      Diags.error(Loc, Region.RegionName,
                  "iteration-space containment violated: loop `" + Var +
                      "` ranges over " + After.str() +
                      " after the transformation but " + B4.str() +
                      " before");
  }
  analysis::BoundsReport BR = analysis::checkBounds(P);
  for (const analysis::SubscriptFinding &F : BR.Findings)
    if (F.Definite && F.Region == Region.RegionName)
      Diags.error(F.Loc, F.Region,
                  "transformation drives a subscript out of bounds: " +
                      F.witness());
}

std::optional<long long> countInstances(const Stmt &S) {
  switch (S.kind()) {
  case StmtKind::Block: {
    long long Sum = 0;
    for (const auto &Sub : cast<Block>(&S)->Stmts) {
      std::optional<long long> C = countInstances(*Sub);
      if (!C)
        return std::nullopt;
      Sum += *C;
    }
    return Sum;
  }
  case StmtKind::For: {
    const auto *F = cast<ForStmt>(&S);
    std::optional<ConstLoop> L = constLoop(*F);
    if (!L)
      return std::nullopt;
    long long Trips = L->Trips;
    std::optional<long long> BodyCount = countInstances(*F->Body);
    if (!BodyCount)
      return std::nullopt;
    if (Trips > 0 && *BodyCount > (1LL << 50) / Trips)
      return std::nullopt; // overflow guard
    return Trips * *BodyCount;
  }
  case StmtKind::If:
    // Data-dependent instance count.
    return std::nullopt;
  case StmtKind::Assign:
    return 1;
  case StmtKind::Decl:
  case StmtKind::CallStmt:
    return 0;
  }
  return std::nullopt;
}

} // namespace

bool verifyProgram(const cir::Program &P, support::DiagEngine &Diags,
                   const VerifierOptions &Opts) {
  size_t ErrorsBefore = Diags.errorCount();
  ProgramChecker(P, Diags).run();
  if (Opts.RoundTrip)
    checkRoundTrip(P, Diags);
  return Diags.errorCount() == ErrorsBefore;
}

std::optional<long long> countAssignInstances(const cir::Block &B) {
  return countInstances(B);
}

bool verifyAfterTransform(const cir::Program &P, const cir::Block &Region,
                          const cir::Block *Before, bool CheckInstanceCounts,
                          support::DiagEngine &Diags) {
  size_t ErrorsBefore = Diags.errorCount();
  verifyProgram(P, Diags);
  if (Before && CheckInstanceCounts) {
    std::optional<long long> CountBefore = countAssignInstances(*Before);
    std::optional<long long> CountAfter = countAssignInstances(Region);
    if (CountBefore && CountAfter && *CountBefore != *CountAfter) {
      support::SrcLoc Loc = Region.Loc;
      if (!Loc.valid() && !Region.Stmts.empty())
        Loc = Region.Stmts.front()->Loc;
      Diags.error(Loc, Region.RegionName,
                  "statement-instance accounting mismatch: region executed " +
                      std::to_string(*CountBefore) +
                      " assignment instances before the transformation but " +
                      std::to_string(*CountAfter) + " after");
    }
  }
  if (Before)
    checkIterationSpace(P, Region, *Before, Diags);
  return Diags.errorCount() == ErrorsBefore;
}

} // namespace analysis
} // namespace locus
