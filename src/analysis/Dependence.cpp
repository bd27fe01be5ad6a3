//===- Dependence.cpp - Data dependence analysis ---------------------------===//

#include "src/analysis/Dependence.h"

#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

namespace locus {
namespace analysis {

using namespace cir;

bool Dependence::mayBeCarriedBy(size_t Level) const {
  if (Level >= Dirs.size())
    return false;
  // Carried by Level when some plausible vector has its first non-'=' at
  // Level; approximated as: all earlier components may be '=', and the
  // component at Level may be '<'.
  for (size_t I = 0; I < Level; ++I)
    if (Dirs[I] == '<' || Dirs[I] == '>')
      return false;
  return Dirs[Level] == '<' || Dirs[Level] == '*';
}

namespace {

int64_t gcd64(int64_t A, int64_t B) {
  A = std::abs(A);
  B = std::abs(B);
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// Direction constraint lattice: '*' unconstrained, concrete values, or
/// conflict (reported via the bool result of merge).
bool mergeDir(char &Slot, char New) {
  if (Slot == '*') {
    Slot = New;
    return true;
  }
  return Slot == New;
}

} // namespace

/// Walks a nest collecting leaf statements and their accesses; also checks
/// that everything needed for dependence testing is affine.
struct DependenceBuilder {
  bool Affine = true;
  support::Diag *WhyNot = nullptr;
  std::vector<const ForStmt *> LoopStack;
  std::set<std::string> LoopVars;
  std::set<std::string> WrittenScalars;
  DependenceInfo Info;

  /// Marks the analysis unavailable, capturing the first reason (with its
  /// source location) for diagnostics when the caller asked for one.
  void nonAffine(support::SrcLoc Loc, const std::string &Msg) {
    if (Affine && WhyNot) {
      WhyNot->Sev = support::DiagSeverity::Warning;
      WhyNot->Loc = Loc;
      WhyNot->Message = Msg;
    }
    Affine = false;
  }

  void run(const ForStmt &Root) {
    // First pass: find scalars written inside the nest (they participate in
    // dependences; read-only scalars are parameters). Declarations count as
    // writes: a subscript through a loop-local temporary (Kripke's
    // "int idx = ..." address computations) is not analyzable as affine.
    forEachStmt(const_cast<ForStmt &>(Root), [&](Stmt &S) {
      if (auto *A = dyn_cast<AssignStmt>(&S)) {
        if (auto *V = dyn_cast<VarRef>(A->Lhs.get()))
          WrittenScalars.insert(V->Name);
      } else if (auto *D = dyn_cast<DeclStmt>(&S)) {
        if (!D->isArray())
          WrittenScalars.insert(D->Name);
      }
    });
    visitLoop(Root);
    Info.NumLeaves = static_cast<int>(Info.LeafStmts.size());
    if (Affine)
      testAllPairs();
  }

  void visitLoop(const ForStmt &For) {
    // Non-affine loop bounds (min/max-clamped tile loops, indirection-driven
    // ranges) are fine: the subscript tests are conservative without trip
    // information. Only subscripts must be affine.
    LoopStack.push_back(&For);
    LoopVars.insert(For.Var);
    visitBlock(*For.Body);
    LoopVars.erase(For.Var);
    LoopStack.pop_back();
  }

  void visitBlock(const Block &B) {
    for (const auto &S : B.Stmts)
      visitStmt(*S);
  }

  void visitStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Block:
      visitBlock(*cast<Block>(&S));
      return;
    case StmtKind::For:
      visitLoop(*cast<ForStmt>(&S));
      return;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      // Conditionals make exact dependence testing unavailable here.
      nonAffine(S.Loc, "conditional statement inside the nest: dependence "
                       "analysis unavailable");
      visitBlock(*I->Then);
      if (I->Else)
        visitBlock(*I->Else);
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      int Leaf = static_cast<int>(Info.LeafStmts.size());
      Info.LeafStmts.push_back(&S);
      // Compound assignment reads the LHS too.
      addAccess(*A->Lhs, /*IsWrite=*/true, Leaf);
      if (A->Op != AssignOp::Set)
        addAccess(*A->Lhs, /*IsWrite=*/false, Leaf);
      addReads(*A->Rhs, Leaf);
      return;
    }
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      int Leaf = static_cast<int>(Info.LeafStmts.size());
      Info.LeafStmts.push_back(&S);
      if (D->Init) {
        // A declaration acts as a scalar write.
        VarRef Tmp(D->Name);
        addAccess(Tmp, /*IsWrite=*/true, Leaf);
        addReads(*D->Init, Leaf);
      }
      return;
    }
    case StmtKind::CallStmt:
      // Unknown call inside the nest: cannot reason about its effects.
      nonAffine(S.Loc, "call `" + printExpr(*cast<CallStmt>(&S)->Call) +
                           "` has unknown effects: dependence analysis "
                           "unavailable");
      Info.LeafStmts.push_back(&S);
      return;
    }
  }

  void addAccess(const Expr &E, bool IsWrite, int Leaf) {
    if (const auto *A = dyn_cast<ArrayRef>(&E)) {
      Access Acc;
      Acc.Array = A->Name;
      Acc.IsWrite = IsWrite;
      Acc.LeafStmt = Leaf;
      Acc.Loops = LoopStack;
      for (const auto &Sub : A->Indices) {
        std::optional<AffineExpr> Aff = toAffine(*Sub);
        if (!Aff) {
          nonAffine(Sub->Loc.valid() ? Sub->Loc : E.Loc,
                    "subscript `" + A->Name + "[" + printExpr(*Sub) +
                        "]` is non-affine: dependence analysis unavailable");
          return;
        }
        // Subscripts referencing scalars that are written in the nest are
        // not analyzable (their value varies unpredictably).
        for (const auto &[Name, Coeff] : Aff->coeffs()) {
          (void)Coeff;
          if (WrittenScalars.count(Name) && !LoopVars.count(Name))
            nonAffine(Sub->Loc.valid() ? Sub->Loc : E.Loc,
                      "subscript `" + A->Name + "[" + printExpr(*Sub) +
                          "]` reads scalar '" + Name +
                          "' written inside the nest: dependence analysis "
                          "unavailable");
        }
        Acc.Subs.push_back(std::move(*Aff));
      }
      Info.Accesses.push_back(std::move(Acc));
      return;
    }
    if (const auto *V = dyn_cast<VarRef>(&E)) {
      // Scalars participate only when written somewhere in the nest.
      if (!WrittenScalars.count(V->Name) || LoopVars.count(V->Name))
        return;
      Access Acc;
      Acc.Array = V->Name;
      Acc.IsWrite = IsWrite;
      Acc.LeafStmt = Leaf;
      Acc.Loops = LoopStack;
      Info.Accesses.push_back(std::move(Acc));
      return;
    }
  }

  void addReads(const Expr &E, int Leaf) {
    switch (E.kind()) {
    case ExprKind::ArrayRef: {
      addAccess(E, /*IsWrite=*/false, Leaf);
      // Indirect subscripts (array refs inside subscripts) were already
      // rejected by toAffine in addAccess; still recurse for reads.
      for (const auto &I : cast<ArrayRef>(&E)->Indices)
        addReads(*I, Leaf);
      return;
    }
    case ExprKind::VarRef:
      addAccess(E, /*IsWrite=*/false, Leaf);
      return;
    case ExprKind::Binary:
      addReads(*cast<BinaryExpr>(&E)->Lhs, Leaf);
      addReads(*cast<BinaryExpr>(&E)->Rhs, Leaf);
      return;
    case ExprKind::Unary:
      addReads(*cast<UnaryExpr>(&E)->Operand, Leaf);
      return;
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if (C->Callee != "min" && C->Callee != "max" && C->Callee != "sqrt" &&
          C->Callee != "fabs")
        nonAffine(E.Loc, "call to '" + C->Callee +
                             "' is not a known pure intrinsic: dependence "
                             "analysis unavailable");
      for (const auto &A : C->Args)
        addReads(*A, Leaf);
      return;
    }
    default:
      return;
    }
  }

  /// Tests every ordered pair of accesses to the same array where at least
  /// one is a write.
  void testAllPairs() {
    for (size_t I = 0; I < Info.Accesses.size(); ++I) {
      for (size_t J = 0; J < Info.Accesses.size(); ++J) {
        if (I == J)
          continue;
        const Access &A = Info.Accesses[I];
        const Access &B = Info.Accesses[J];
        if (A.Array != B.Array || (!A.IsWrite && !B.IsWrite))
          continue;
        testPair(A, B);
      }
    }
  }

  void testPair(const Access &A, const Access &B) {
    // Common loops: longest common prefix of the enclosing loop chains.
    size_t Common = 0;
    while (Common < A.Loops.size() && Common < B.Loops.size() &&
           A.Loops[Common] == B.Loops[Common])
      ++Common;

    std::vector<char> Dirs(Common, '*');
    std::set<std::string> CommonVars;
    for (size_t L = 0; L < Common; ++L)
      CommonVars.insert(A.Loops[L]->Var);

    if (A.Subs.size() != B.Subs.size())
      return; // different dimensionality: treat as distinct objects

    for (size_t D = 0; D < A.Subs.size(); ++D)
      if (!testDim(A.Subs[D], B.Subs[D], A, B, CommonVars, Dirs, Common))
        return; // proven independent

    Dependence Dep;
    Dep.SrcStmt = A.LeafStmt;
    Dep.DstStmt = B.LeafStmt;
    Dep.Array = A.Array;
    Dep.IsScalar = A.Subs.empty();
    Dep.Kind = A.IsWrite ? (B.IsWrite ? DepKind::Output : DepKind::Flow)
                         : DepKind::Anti;
    Dep.Dirs = std::move(Dirs);
    Dep.CommonLoops.assign(A.Loops.begin(),
                           A.Loops.begin() + static_cast<long>(Common));
    // Keep only dependences with at least one plausible vector.
    DependenceInfo Tmp;
    Info.Deps.push_back(std::move(Dep));
    if (Info.plausibleVectors(Info.Deps.back()).empty())
      Info.Deps.pop_back();
  }

  /// Per-dimension test; returns false when the dimension proves the pair
  /// independent, otherwise refines \p Dirs.
  bool testDim(const AffineExpr &FA, const AffineExpr &FB, const Access &A,
               const Access &B, const std::set<std::string> &CommonVars,
               std::vector<char> &Dirs, size_t Common) {
    // Split into common-loop-var part, other-loop-var part, and params.
    auto Classify = [&](const AffineExpr &E, const Access &Acc,
                        std::map<std::string, int64_t> &CommonC,
                        std::map<std::string, int64_t> &OtherLoopC,
                        std::map<std::string, int64_t> &ParamC) {
      for (const auto &[Name, Coeff] : E.coeffs()) {
        bool IsLoop = false;
        for (const ForStmt *L : Acc.Loops)
          if (L->Var == Name)
            IsLoop = true;
        if (CommonVars.count(Name))
          CommonC[Name] += Coeff;
        else if (IsLoop)
          OtherLoopC[Name] += Coeff;
        else
          ParamC[Name] += Coeff;
      }
    };

    std::map<std::string, int64_t> CA, OA, PA, CB, OB, PB;
    Classify(FA, A, CA, OA, PA);
    Classify(FB, B, CB, OB, PB);

    // Mismatched symbolic parameter parts: the constant distance is unknown,
    // but a symbolic GCD test still proves independence when every
    // coefficient of the parameter difference is a multiple of the gcd of
    // the loop-variable coefficients while the constant difference is not.
    if (PA != PB) {
      std::map<std::string, int64_t> PD = PA;
      for (const auto &[Name, Coeff] : PB)
        PD[Name] -= Coeff;
      int64_t G = 0;
      for (const auto &[Name, Coeff] : CA)
        (void)Name, G = gcd64(G, Coeff);
      for (const auto &[Name, Coeff] : CB)
        (void)Name, G = gcd64(G, Coeff);
      for (const auto &[Name, Coeff] : OA)
        (void)Name, G = gcd64(G, Coeff);
      for (const auto &[Name, Coeff] : OB)
        (void)Name, G = gcd64(G, Coeff);
      if (G != 0) {
        bool ParamsDivisible = true;
        for (const auto &[Name, Coeff] : PD) {
          (void)Name;
          if (Coeff % G != 0)
            ParamsDivisible = false;
        }
        if (ParamsDivisible && (FA.constant() - FB.constant()) % G != 0)
          return false; // symbolic GCD proves independence
      }
      return true; // otherwise conservatively unknown
    }

    if (CA.empty() && CB.empty() && OA.empty() && OB.empty()) {
      // ZIV: pure constants (plus matching params).
      return FA.constant() == FB.constant();
    }

    // Strong SIV: exactly one common var with equal coefficients on both
    // sides, and no other loop vars involved.
    if (OA.empty() && OB.empty() && CA.size() == 1 && CB.size() == 1 &&
        CA.begin()->first == CB.begin()->first &&
        CA.begin()->second == CB.begin()->second) {
      const std::string &Var = CA.begin()->first;
      int64_t Coeff = CA.begin()->second;
      int64_t Diff = FA.constant() - FB.constant();
      if (Diff % Coeff != 0)
        return false; // non-integer distance: independent
      int64_t Distance = Diff / Coeff; // in value space of the variable
      // The variable only takes values Lo, Lo+Step, ...: a distance that is
      // not a multiple of the step is unrealizable (unrolled loops write
      // interleaved, disjoint element sets).
      for (size_t L = 0; L < Common; ++L) {
        if (A.Loops[L]->Var != Var)
          continue;
        int64_t Step = A.Loops[L]->Step;
        if (Step > 1 && Distance % Step != 0)
          return false;
      }
      char Dir = Distance > 0 ? '<' : (Distance < 0 ? '>' : '=');
      for (size_t L = 0; L < Common; ++L) {
        if (A.Loops[L]->Var != Var)
          continue;
        if (!mergeDir(Dirs[L], Dir))
          return false; // conflicting constraints: independent
      }
      return true;
    }

    // Constant iteration facts of the common loop driving \p Var, when its
    // bounds are compile-time constants. The range tests below treat the
    // loop as covering [First, Limit - 1], not aligned to the step.
    auto ConstRange = [&](const std::string &Var) -> std::optional<ConstLoop> {
      for (size_t L = 0; L < Common; ++L)
        if (A.Loops[L]->Var == Var)
          return constLoop(*A.Loops[L]);
      return std::nullopt;
    };

    // Weak-zero SIV: a*i + c1 against a constant c2. A dependence needs the
    // single iteration i0 = (c2 - c1)/a; independent when i0 is fractional
    // or falls outside the loop's constant iteration range.
    if (OA.empty() && OB.empty() &&
        ((CA.size() == 1 && CB.empty()) || (CA.empty() && CB.size() == 1))) {
      const auto &VarSide = CA.empty() ? CB : CA;
      const std::string &Var = VarSide.begin()->first;
      int64_t Coeff = VarSide.begin()->second;
      int64_t Diff = CA.empty() ? FA.constant() - FB.constant()
                                : FB.constant() - FA.constant();
      if (Coeff != 0) {
        if (Diff % Coeff != 0)
          return false; // no integer solution: independent
        int64_t I0 = Diff / Coeff;
        if (std::optional<ConstLoop> R = ConstRange(Var)) {
          if (I0 < R->First || I0 >= R->Limit ||
              (static_cast<__int128>(I0) - R->First) % R->Step != 0)
            return false; // solution outside the iteration space
        }
      }
      return true; // realizable (or range unknown): directions stay '*'
    }

    // Weak-crossing SIV: a*i + c1 against -a*i + c2. A dependence needs
    // iterations i1, i2 with i1 + i2 = (c2 - c1)/a; independent when no such
    // pair exists in the loop's constant iteration range.
    if (OA.empty() && OB.empty() && CA.size() == 1 && CB.size() == 1 &&
        CA.begin()->first == CB.begin()->first &&
        CA.begin()->second == -CB.begin()->second &&
        CA.begin()->second != 0) {
      const std::string &Var = CA.begin()->first;
      int64_t Coeff = CA.begin()->second;
      int64_t Diff = FB.constant() - FA.constant();
      if (Diff % Coeff != 0)
        return false; // crossing point is not at an integer multiple
      int64_t Sum = Diff / Coeff; // i1 + i2 at the crossing
      if (std::optional<ConstLoop> R = ConstRange(Var)) {
        // Twice an endpoint may leave int64_t; compare in 128 bits.
        __int128 Lo2 = 2 * static_cast<__int128>(R->First);
        __int128 Hi2 = 2 * (static_cast<__int128>(R->Limit) - 1);
        if (Sum < Lo2 || Sum > Hi2 || (Sum - Lo2) % R->Step != 0)
          return false; // no iteration pair reaches the crossing
      }
      return true; // realizable crossing: directions stay '*'
    }

    // GCD test over all loop-variable coefficients.
    int64_t G = 0;
    for (const auto &[Name, Coeff] : CA)
      (void)Name, G = gcd64(G, Coeff);
    for (const auto &[Name, Coeff] : CB)
      (void)Name, G = gcd64(G, Coeff);
    for (const auto &[Name, Coeff] : OA)
      (void)Name, G = gcd64(G, Coeff);
    for (const auto &[Name, Coeff] : OB)
      (void)Name, G = gcd64(G, Coeff);
    int64_t Diff = FA.constant() - FB.constant();
    if (G != 0 && Diff % G != 0)
      return false; // GCD test proves independence
    return true;    // unknown: keep '*' directions
  }
};

std::optional<DependenceInfo>
DependenceInfo::compute(const ForStmt &Root, support::Diag *WhyNot) {
  DependenceBuilder Builder;
  Builder.WhyNot = WhyNot;
  Builder.run(Root);
  if (!Builder.Affine)
    return std::nullopt;
  Builder.Info.NestLoops.clear();
  for (ForStmt *L : perfectNest(const_cast<ForStmt &>(Root)))
    Builder.Info.NestLoops.push_back(L);
  return std::move(Builder.Info);
}

std::vector<std::vector<char>>
DependenceInfo::plausibleVectors(const Dependence &D) const {
  std::vector<std::vector<char>> Result;
  std::vector<char> Current(D.Dirs.size(), '=');
  const std::function<void(size_t)> Expand = [&](size_t Pos) {
    if (Pos == D.Dirs.size()) {
      // Keep lexicographically positive vectors; all-'=' vectors are
      // plausible only when the source precedes the destination textually
      // (or reads-before-write within one statement).
      size_t FirstNonEq = 0;
      while (FirstNonEq < Current.size() && Current[FirstNonEq] == '=')
        ++FirstNonEq;
      if (FirstNonEq == Current.size()) {
        bool EqPlausible = D.SrcStmt < D.DstStmt ||
                           (D.SrcStmt == D.DstStmt && D.Kind == DepKind::Anti);
        if (EqPlausible)
          Result.push_back(Current);
        return;
      }
      if (Current[FirstNonEq] == '<')
        Result.push_back(Current);
      return;
    }
    if (D.Dirs[Pos] == '*') {
      for (char C : {'<', '=', '>'}) {
        Current[Pos] = C;
        Expand(Pos + 1);
      }
    } else {
      Current[Pos] = D.Dirs[Pos];
      Expand(Pos + 1);
    }
  };
  Expand(0);
  return Result;
}

bool DependenceInfo::interchangeLegal(const std::vector<int> &Perm) const {
  for (const Dependence &D : Deps) {
    for (const std::vector<char> &V : plausibleVectors(D)) {
      // Build the permuted vector over the perfect-nest positions.
      std::vector<char> P;
      P.reserve(Perm.size());
      for (int Orig : Perm) {
        char C = '=';
        if (Orig >= 0 && static_cast<size_t>(Orig) < V.size())
          C = V[static_cast<size_t>(Orig)];
        P.push_back(C);
      }
      // Components beyond the permuted band keep their original order.
      for (size_t I = Perm.size(); I < V.size(); ++I)
        P.push_back(V[I]);
      size_t FirstNonEq = 0;
      while (FirstNonEq < P.size() && P[FirstNonEq] == '=')
        ++FirstNonEq;
      if (FirstNonEq < P.size() && P[FirstNonEq] == '>')
        return false;
    }
  }
  return true;
}

bool DependenceInfo::tilingLegal(size_t BandBegin, size_t BandEnd) const {
  for (const Dependence &D : Deps) {
    for (const std::vector<char> &V : plausibleVectors(D)) {
      bool SatisfiedOutside = false;
      for (size_t I = 0; I < BandBegin && I < V.size(); ++I)
        if (V[I] == '<') {
          SatisfiedOutside = true;
          break;
        }
      if (SatisfiedOutside)
        continue;
      for (size_t I = BandBegin; I <= BandEnd && I < V.size(); ++I)
        if (V[I] == '>')
          return false;
    }
  }
  return true;
}

bool DependenceInfo::unrollAndJamLegal(size_t Level) const {
  for (const Dependence &D : Deps) {
    for (const std::vector<char> &V : plausibleVectors(D)) {
      bool SatisfiedOutside = false;
      for (size_t I = 0; I < Level && I < V.size(); ++I)
        if (V[I] == '<') {
          SatisfiedOutside = true;
          break;
        }
      if (SatisfiedOutside || Level >= V.size() || V[Level] == '=')
        continue;
      // Carried by the jammed loop: the jam is illegal when any inner
      // component runs backwards.
      for (size_t I = Level + 1; I < V.size(); ++I)
        if (V[I] == '>')
          return false;
    }
  }
  return true;
}

std::vector<std::vector<int>>
DependenceInfo::stmtGraph(const ForStmt &Loop) const {
  // Map each leaf statement to the index of the top-level body statement
  // containing it.
  std::vector<int> LeafGroup(LeafStmts.size(), -1);
  for (size_t Top = 0; Top < Loop.Body->Stmts.size(); ++Top) {
    forEachStmt(*Loop.Body->Stmts[Top], [&](Stmt &S) {
      for (size_t Leaf = 0; Leaf < LeafStmts.size(); ++Leaf)
        if (LeafStmts[Leaf] == &S)
          LeafGroup[Leaf] = static_cast<int>(Top);
    });
  }

  std::vector<std::vector<int>> Graph(Loop.Body->Stmts.size());
  for (const Dependence &D : Deps) {
    int SrcGroup = D.SrcStmt < static_cast<int>(LeafGroup.size())
                       ? LeafGroup[static_cast<size_t>(D.SrcStmt)]
                       : -1;
    int DstGroup = D.DstStmt < static_cast<int>(LeafGroup.size())
                       ? LeafGroup[static_cast<size_t>(D.DstStmt)]
                       : -1;
    if (SrcGroup < 0 || DstGroup < 0 || SrcGroup == DstGroup)
      continue;
    auto AddEdge = [&](int From, int To) {
      auto &Edges = Graph[static_cast<size_t>(From)];
      if (std::find(Edges.begin(), Edges.end(), To) == Edges.end())
        Edges.push_back(To);
    };
    AddEdge(SrcGroup, DstGroup);
    // Scalar-linked statements must stay in one loop after distribution:
    // force them into the same strongly connected component.
    if (D.IsScalar)
      AddEdge(DstGroup, SrcGroup);
  }
  return Graph;
}

bool DependenceInfo::distributionLegal(const ForStmt &Loop) const {
  std::vector<std::vector<int>> Graph = stmtGraph(Loop);
  // Legal (conservatively, preserving textual order) when no backward edge.
  for (size_t From = 0; From < Graph.size(); ++From)
    for (int To : Graph[From])
      if (To < static_cast<int>(From))
        return false;
  return true;
}

} // namespace analysis
} // namespace locus
