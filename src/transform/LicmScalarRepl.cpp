//===- LicmScalarRepl.cpp - LICM and scalar replacement ---------------------===//

#include "src/transform/LicmScalarRepl.h"

#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"

#include <algorithm>
#include <map>
#include <set>

namespace locus {
namespace transform {

using namespace cir;

namespace {

/// Names that vary inside a loop: its induction variable, every nested
/// loop's induction variable, and every scalar assigned in the body.
struct LoopVariance {
  std::set<std::string> VariantScalars;
  std::set<std::string> WrittenArrays;

  explicit LoopVariance(ForStmt &Loop) {
    VariantScalars.insert(Loop.Var);
    forEachStmt(*Loop.Body, [&](Stmt &S) {
      if (auto *For = dyn_cast<ForStmt>(&S))
        VariantScalars.insert(For->Var);
      if (auto *D = dyn_cast<DeclStmt>(&S))
        VariantScalars.insert(D->Name);
      if (auto *A = dyn_cast<AssignStmt>(&S)) {
        if (auto *V = dyn_cast<VarRef>(A->Lhs.get()))
          VariantScalars.insert(V->Name);
        if (auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get()))
          WrittenArrays.insert(Arr->Name);
      }
    });
  }

  /// Whether \p E reads no variant scalar, no written array and calls no
  /// function but min and max (unknown calls are not movable).
  bool isInvariant(const Expr &E) const {
    bool Variant = false;
    forEachSubExpr(E, [&](const Expr &Sub) {
      if (const auto *V = dyn_cast<VarRef>(&Sub))
        Variant = Variant || VariantScalars.count(V->Name);
      else if (const auto *A = dyn_cast<ArrayRef>(&Sub))
        Variant = Variant || WrittenArrays.count(A->Name);
      else if (const auto *C = dyn_cast<CallExpr>(&Sub))
        Variant = Variant || (C->Callee != "min" && C->Callee != "max");
      return !Variant;
    });
    return !Variant;
  }
};

/// Counts arithmetic operations in an expression; array subscripts are not
/// counted.
int opCount(const Expr &E) {
  int N = 0;
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (isa<BinaryExpr>(&Sub) || isa<UnaryExpr>(&Sub) || isa<CallExpr>(&Sub))
      ++N;
    return !isa<ArrayRef>(&Sub);
  });
  return N;
}

/// Counts assignments to scalar \p Name in the loop body.
int scalarAssignCount(ForStmt &Loop, const std::string &Name) {
  int Count = 0;
  forEachStmt(*Loop.Body, [&](Stmt &S) {
    if (auto *A = dyn_cast<AssignStmt>(&S))
      if (auto *V = dyn_cast<VarRef>(A->Lhs.get()))
        if (V->Name == Name)
          ++Count;
    if (auto *D = dyn_cast<DeclStmt>(&S))
      if (D->Name == Name && D->Init)
        ++Count;
  });
  return Count;
}

/// One LICM pass over a single loop; returns the number of hoists.
int hoistFromLoop(Block &Region, ForStmt &Loop, int MinOps,
                  const std::map<std::string, ElemType> &Types) {
  std::optional<StmtLocation> Loc = locateStmt(Region, &Loop);
  if (!Loc)
    return 0;
  int Hoists = 0;

  // Phase 1: whole-statement hoisting of invariant scalar definitions that
  // sit directly in the loop body.
  for (size_t I = 0; I < Loop.Body->Stmts.size();) {
    Stmt *S = Loop.Body->Stmts[I].get();
    std::string DefName;
    const Expr *Rhs = nullptr;
    if (auto *A = dyn_cast<AssignStmt>(S)) {
      if (A->Op == AssignOp::Set)
        if (auto *V = dyn_cast<VarRef>(A->Lhs.get())) {
          DefName = V->Name;
          Rhs = A->Rhs.get();
        }
    } else if (auto *D = dyn_cast<DeclStmt>(S)) {
      if (D->Init && !D->isArray()) {
        DefName = D->Name;
        Rhs = D->Init.get();
      }
    }
    bool Hoist = false;
    if (Rhs && !DefName.empty()) {
      LoopVariance Variance(Loop);
      // The defined name itself is variant (it is assigned); temporarily
      // treat it as hoistable when this is its only definition.
      if (scalarAssignCount(Loop, DefName) == 1) {
        Variance.VariantScalars.erase(DefName);
        Hoist = Variance.isInvariant(*Rhs) && !referencesVar(*Rhs, DefName);
      }
    }
    if (Hoist) {
      StmtPtr Moved = std::move(Loop.Body->Stmts[I]);
      Loop.Body->Stmts.erase(Loop.Body->Stmts.begin() + static_cast<long>(I));
      Loc->Parent->Stmts.insert(Loc->Parent->Stmts.begin() +
                                    static_cast<long>(Loc->Index),
                                std::move(Moved));
      ++Loc->Index;
      ++Hoists;
      continue;
    }
    ++I;
  }
  if (Loop.Body->Stmts.empty())
    return Hoists;

  // Phase 2: hoist maximal invariant subexpressions into fresh temporaries.
  LoopVariance Variance(Loop);
  std::vector<ExprPtr> Candidates;
  auto HasUnsafeDiv = [](const Expr &E) {
    bool Unsafe = false;
    forEachSubExpr(E, [&](const Expr &Sub) {
      if (const auto *B = dyn_cast<BinaryExpr>(&Sub))
        if ((B->Op == BinOp::Div || B->Op == BinOp::Mod) &&
            !evalConstInt(*B->Rhs))
          Unsafe = true;
      return true;
    });
    return Unsafe;
  };
  auto Consider = [&](const Expr &E) {
    if (opCount(E) < std::max(MinOps, 1))
      return false;
    if (!Variance.isInvariant(E))
      return false;
    // Speculative hoisting must not introduce a division fault.
    if (HasUnsafeDiv(E))
      return false;
    for (const auto &C : Candidates)
      if (exprEquals(*C, E))
        return true; // already collected
    Candidates.push_back(E.clone());
    return true;
  };
  // Find maximal invariant subtrees: a candidate's own subexpressions are
  // not scanned.
  auto Scan = [&](const Expr &E) {
    forEachSubExpr(E, [&](const Expr &Sub) { return !Consider(Sub); });
  };
  forEachStmt(*Loop.Body, [&](Stmt &S) {
    // Loop headers of nested loops are scanned too (their bounds repeat).
    if (auto *A = dyn_cast<AssignStmt>(&S)) {
      Scan(*A->Rhs);
      if (auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get()))
        for (const auto &I : Arr->Indices)
          Scan(*I);
    } else if (auto *D = dyn_cast<DeclStmt>(&S)) {
      if (D->Init)
        Scan(*D->Init);
    }
  });

  for (ExprPtr &Candidate : Candidates) {
    std::string Temp = freshName(Region, "licm");
    ElemType Elem = inferElemType(*Candidate, Types);
    auto Decl = std::make_unique<DeclStmt>(Elem, Temp, std::vector<int64_t>{},
                                           Candidate->clone());
    Loc->Parent->Stmts.insert(Loc->Parent->Stmts.begin() +
                                  static_cast<long>(Loc->Index),
                              std::move(Decl));
    ++Loc->Index;
    // Replace every occurrence inside the loop body.
    VarRef Repl(Temp);
    rewriteExprs(*Loop.Body, [&](const Expr &E) {
      return exprEquals(E, *Candidate) ? Repl.clone() : nullptr;
    });
    ++Hoists;
  }
  return Hoists;
}

} // namespace

TransformResult applyLicm(Block &Region, const LicmArgs &Args,
                          const TransformContext &Ctx) {
  std::map<std::string, ElemType> Types;
  if (Ctx.Prog)
    Types = collectDeclTypes(*Ctx.Prog);

  int TotalHoists = 0;
  // Iterate to a fixpoint so hoists cascade from inner loops to outer ones.
  for (int Pass = 0; Pass < 8; ++Pass) {
    // Deepest loops first.
    std::vector<LoopEntry> Loops = listLoops(Region);
    std::stable_sort(Loops.begin(), Loops.end(),
                     [](const LoopEntry &A, const LoopEntry &B) {
                       return A.Path.size() > B.Path.size();
                     });
    int Hoists = 0;
    for (LoopEntry &L : Loops)
      Hoists += hoistFromLoop(Region, *L.Loop, Args.MinOps, Types);
    TotalHoists += Hoists;
    if (Hoists == 0)
      break;
  }
  if (TotalHoists == 0)
    return TransformResult::noop("no loop-invariant code found");
  return TransformResult::success();
}

TransformResult applyScalarRepl(Block &Region, const ScalarReplArgs &Args,
                                const TransformContext &Ctx) {
  (void)Args;
  std::map<std::string, ElemType> Types;
  if (Ctx.Prog)
    Types = collectDeclTypes(*Ctx.Prog);

  int Replacements = 0;
  for (int Pass = 0; Pass < 4; ++Pass) {
    std::vector<LoopEntry> Inner = listInnerLoops(Region);
    int PassReplacements = 0;
    for (LoopEntry &Entry : Inner) {
      ForStmt &Loop = *Entry.Loop;
      std::optional<StmtLocation> Loc = locateStmt(Region, &Loop);
      if (!Loc)
        continue;

      // Group references per array; only arrays whose every reference in the
      // loop has identical, loop-invariant subscripts are replaceable.
      struct Group {
        const ArrayRef *Representative = nullptr;
        bool Written = false;
        bool Uniform = true;
      };
      std::map<std::string, Group> Groups;
      LoopVariance Variance(Loop);
      forEachExpr(*Loop.Body, [&](const ExprPtr &E) {
        forEachSubExpr(*E, [&](const Expr &Sub) {
          if (const auto *A = dyn_cast<ArrayRef>(&Sub)) {
            Group &G = Groups[A->Name];
            if (!G.Representative)
              G.Representative = A;
            else if (!exprEquals(*G.Representative, *A))
              G.Uniform = false;
          }
          return true;
        });
      });
      forEachStmt(*Loop.Body, [&](const Stmt &S) {
        if (const auto *A = dyn_cast<AssignStmt>(&S))
          if (const auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get()))
            Groups[Arr->Name].Written = true;
      });

      for (auto &[Name, G] : Groups) {
        if (!G.Uniform || !G.Representative)
          continue;
        // Subscripts must be invariant in this loop.
        bool Invariant = true;
        for (const auto &I : G.Representative->Indices)
          if (!Variance.isInvariant(*I))
            Invariant = false;
        if (!Invariant || G.Representative->Indices.empty())
          continue;

        std::string Temp = freshName(Region, "sr");
        ElemType Elem = Types.count(Name) ? Types.at(Name) : ElemType::Double;
        ExprPtr RefClone = G.Representative->clone();
        auto Preload = std::make_unique<DeclStmt>(
            Elem, Temp, std::vector<int64_t>{}, RefClone->clone());
        bool Written = G.Written;

        // Replace all matching references by the temporary.
        VarRef Repl(Temp);
        rewriteExprs(*Loop.Body, [&](const Expr &E) {
          return exprEquals(E, *RefClone) ? Repl.clone() : nullptr;
        });

        Loc->Parent->Stmts.insert(Loc->Parent->Stmts.begin() +
                                      static_cast<long>(Loc->Index),
                                  std::move(Preload));
        ++Loc->Index;
        if (Written) {
          auto Store = std::make_unique<AssignStmt>(
              RefClone->clone(), AssignOp::Set, Repl.clone());
          Loc->Parent->Stmts.insert(Loc->Parent->Stmts.begin() +
                                        static_cast<long>(Loc->Index + 1),
                                    std::move(Store));
        }
        ++PassReplacements;
        break; // indices shifted; redo discovery in the next pass
      }
    }
    Replacements += PassReplacements;
    if (PassReplacements == 0)
      break;
  }
  if (Replacements == 0)
    return TransformResult::noop("no scalar-replaceable references");
  return TransformResult::success();
}

} // namespace transform
} // namespace locus
