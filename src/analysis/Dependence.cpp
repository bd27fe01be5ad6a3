//===- Dependence.cpp - Data dependence analysis ---------------------------===//

#include "src/analysis/Dependence.h"

#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace locus {
namespace analysis {

using namespace cir;

bool Dependence::mayBeCarriedBy(size_t Level) const {
  if (Level >= Dirs.size())
    return false;
  // Exact, without enumerating: a vector with '=' before Level and '<' at
  // Level is lexicographically positive, hence plausible, and one exists
  // exactly when every earlier component can be '=' (is '=' or '*') and the
  // component at Level can be '<' (is '<' or '*').
  for (size_t I = 0; I < Level; ++I)
    if (Dirs[I] == '<' || Dirs[I] == '>')
      return false;
  return Dirs[Level] == '<' || Dirs[Level] == '*';
}

namespace {

/// The emptiness test behind Dependence::hasPlausibleVector, in O(k): scan
/// for the first component that is not '='. '<' or '*' (expand it to '<')
/// starts a lexicographically positive vector; '>' makes every expansion
/// start negative; all '=' is plausible only when the source precedes the
/// destination textually (or reads before it writes within one statement).
bool plausible(const char *Dirs, size_t K, int SrcStmt, int DstStmt,
               DepKind Kind) {
  for (size_t I = 0; I < K; ++I) {
    if (Dirs[I] == '=')
      continue;
    return Dirs[I] != '>';
  }
  return SrcStmt < DstStmt || (SrcStmt == DstStmt && Kind == DepKind::Anti);
}

/// Magnitude of \p V; exact for INT64_MIN too.
uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

uint64_t gcdU64(uint64_t A, uint64_t B) {
  while (B != 0) {
    uint64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

/// N / D when D divides N exactly. Overflowing cases (D == 0, INT64_MIN /
/// -1) are Unknown: a dimension that meets one proves nothing.
struct Quotient {
  enum { Exact, Fractional, Unknown } Kind;
  int64_t Value = 0;
};

Quotient divide(int64_t N, int64_t D) {
  if (D == 0 || (N == INT64_MIN && D == -1))
    return {Quotient::Unknown};
  if (N % D != 0)
    return {Quotient::Fractional};
  return {Quotient::Exact, N / D};
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

/// Sentinel depth of a subscript variable that no enclosing loop drives.
constexpr size_t NotALoop = SIZE_MAX;

} // namespace

bool Dependence::hasPlausibleVector() const {
  return plausible(Dirs.data(), Dirs.size(), SrcStmt, DstStmt, Kind);
}

std::vector<std::vector<char>> Dependence::plausibleVectors() const {
  std::vector<std::vector<char>> Result;
  std::vector<char> Current(Dirs.size(), '=');
  const std::function<void(size_t)> Expand = [&](size_t Pos) {
    if (Pos == Dirs.size()) {
      // Keep lexicographically positive vectors; all-'=' vectors are
      // plausible only when the source precedes the destination textually
      // (or reads-before-write within one statement).
      size_t FirstNonEq = 0;
      while (FirstNonEq < Current.size() && Current[FirstNonEq] == '=')
        ++FirstNonEq;
      if (FirstNonEq == Current.size()) {
        bool EqPlausible = SrcStmt < DstStmt ||
                           (SrcStmt == DstStmt && Kind == DepKind::Anti);
        if (EqPlausible)
          Result.push_back(Current);
        return;
      }
      if (Current[FirstNonEq] == '<')
        Result.push_back(Current);
      return;
    }
    if (Dirs[Pos] == '*') {
      for (char C : {'<', '=', '>'}) {
        Current[Pos] = C;
        Expand(Pos + 1);
      }
    } else {
      Current[Pos] = Dirs[Pos];
      Expand(Pos + 1);
    }
  };
  Expand(0);
  return Result;
}

/// Walks a nest collecting leaf statements and their accesses, checks that
/// everything needed for dependence testing is affine, and tests every pair
/// of accesses that may touch the same memory. compute() records each
/// plausible dependence; carriedByRoot() (VerdictOnly) records none and
/// stops at the first one the root loop carries.
///
/// Names are interned as the walk meets them: every subscript variable and
/// array gets an integer id, and every subscript term records the depth of
/// the outermost enclosing loop of its access driven by that variable. The
/// pair tests then classify a term for a pair with C common loops by
/// comparing that depth with C: a common loop variable below C, another
/// loop's variable at or past it, a parameter when no loop drives it. Loops
/// are matched by variable name, so a name reused by nested loops classifies
/// by its outermost loop, as comparing names would.
struct DependenceBuilder {
  bool VerdictOnly = false;
  bool Carried = false; ///< VerdictOnly: a dependence the root carries
  bool Affine = true;
  support::Diag *WhyNot = nullptr;
  DependenceInfo Info;

  /// One interned name.
  struct Name {
    std::string Text;
    bool Written = false; ///< a scalar assigned or declared in the nest
    bool LoopVar = false; ///< the variable of a loop the walk is inside
  };
  /// One loop of the nest. Its chain, Chains[Chain, Chain + Depth], lists
  /// the loops enclosing it (outer first, itself last): every access of the
  /// loop's body shares it.
  struct Loop {
    const ForStmt *For = nullptr;
    int Var = 0;
    size_t Chain = 0;
    size_t Depth = 0;
    std::optional<ConstLoop> Range; ///< constLoop(*For)
  };
  /// One variable of an affine subscript, resolved.
  struct Term {
    int Var = 0;             ///< interned name
    int64_t Coeff = 0;       ///< coefficient
    size_t Depth = NotALoop; ///< outermost enclosing loop over Var
  };
  /// One subscript: Terms[Begin, End) in the AffineExpr's name order.
  struct Subscript {
    size_t Begin = 0;
    size_t End = 0;
    int64_t Constant = 0;
  };
  /// One array (or scalar) access inside the nest.
  struct Access {
    int Array = 0; ///< interned; scalars use their own name
    bool IsWrite = false;
    int LeafStmt = 0;    ///< index of the owning leaf statement (preorder)
    size_t Loop = 0;     ///< innermost enclosing loop
    size_t FirstSub = 0; ///< Subs[FirstSub, FirstSub + NumSubs)
    size_t NumSubs = 0;  ///< 0 for scalars
  };
  std::vector<Name> Names;
  std::vector<Loop> Loops;
  std::vector<size_t> Chains;
  std::vector<size_t> LoopStack; ///< indices into Loops, outer first
  std::vector<Access> Accesses;
  std::vector<Term> Terms;
  std::vector<Subscript> Subs;
  std::vector<char> Dirs; ///< the pair under test's direction vector

  int intern(const std::string &Text) {
    for (size_t I = 0; I < Names.size(); ++I)
      if (Names[I].Text == Text)
        return static_cast<int>(I);
    Names.push_back({Text});
    return static_cast<int>(Names.size() - 1);
  }

  const size_t *chain(const Access &A) const {
    return &Chains[Loops[A.Loop].Chain];
  }
  size_t depth(const Access &A) const { return Loops[A.Loop].Depth + 1; }

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
    forEachStmt(Root, [&](const Stmt &S) {
      if (auto *A = dyn_cast<AssignStmt>(&S)) {
        if (auto *V = dyn_cast<VarRef>(A->Lhs.get()))
          Names[static_cast<size_t>(intern(V->Name))].Written = true;
      } else if (auto *D = dyn_cast<DeclStmt>(&S)) {
        if (!D->isArray())
          Names[static_cast<size_t>(intern(D->Name))].Written = true;
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
    Loop L;
    L.For = &For;
    L.Var = intern(For.Var);
    L.Chain = Chains.size();
    L.Depth = LoopStack.size();
    L.Range = constLoop(For);
    LoopStack.push_back(Loops.size());
    Chains.insert(Chains.end(), LoopStack.begin(), LoopStack.end());
    Loops.push_back(L);
    Names[static_cast<size_t>(L.Var)].LoopVar = true;
    visitBlock(*For.Body);
    Names[static_cast<size_t>(L.Var)].LoopVar = false;
    LoopStack.pop_back();
  }
  void visitBlock(const Block &B) {
    // The first construct that defeats the analysis ends the walk.
    for (const auto &S : B.Stmts)
      if (Affine)
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
    case StmtKind::If:
      // Conditionals make exact dependence testing unavailable here.
      nonAffine(S.Loc, "conditional statement inside the nest: dependence "
                       "analysis unavailable");
      return;
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
        addScalar(D->Name, /*IsWrite=*/true, Leaf);
        addReads(*D->Init, Leaf);
      }
      return;
    }
    case StmtKind::CallStmt:
      // Unknown call inside the nest: cannot reason about its effects.
      nonAffine(S.Loc, "call `" + printExpr(*cast<CallStmt>(&S)->Call) +
                           "` has unknown effects: dependence analysis "
                           "unavailable");
      return;
    }
  }

  /// The depth of the outermost loop on the walk's stack driven by \p Var.
  size_t loopDepth(int Var) const {
    for (size_t L = 0; L < LoopStack.size(); ++L)
      if (Loops[LoopStack[L]].Var == Var)
        return L;
    return NotALoop;
  }

  void addScalar(const std::string &Text, bool IsWrite, int Leaf) {
    // Scalars participate only when written somewhere in the nest.
    int Var = intern(Text);
    const Name &N = Names[static_cast<size_t>(Var)];
    if (N.Written && !N.LoopVar)
      Accesses.push_back({Var, IsWrite, Leaf, LoopStack.back(), Subs.size()});
  }

  void addAccess(const Expr &E, bool IsWrite, int Leaf) {
    if (const auto *V = dyn_cast<VarRef>(&E)) {
      addScalar(V->Name, IsWrite, Leaf);
      return;
    }
    const auto *A = dyn_cast<ArrayRef>(&E);
    if (!A)
      return;
    Access Acc{intern(A->Name), IsWrite, Leaf, LoopStack.back(), Subs.size(),
               A->Indices.size()};
    for (const auto &Sub : A->Indices) {
      support::SrcLoc Loc = Sub->Loc.valid() ? Sub->Loc : E.Loc;
      std::optional<AffineExpr> Aff = toAffine(*Sub);
      if (!Aff) {
        nonAffine(Loc, "subscript `" + A->Name + "[" + printExpr(*Sub) +
                           "]` is non-affine: dependence analysis unavailable");
        return;
      }
      Subscript S{Terms.size(), 0, Aff->constant()};
      for (const auto &[Text, Coeff] : Aff->coeffs()) {
        int Var = intern(Text);
        // Subscripts referencing scalars that are written in the nest are
        // not analyzable (their value varies unpredictably).
        const Name &N = Names[static_cast<size_t>(Var)];
        if (N.Written && !N.LoopVar)
          nonAffine(Loc, "subscript `" + A->Name + "[" + printExpr(*Sub) +
                             "]` reads scalar '" + Text +
                             "' written inside the nest: dependence analysis "
                             "unavailable");
        Terms.push_back({Var, Coeff, loopDepth(Var)});
      }
      S.End = Terms.size();
      Subs.push_back(S);
    }
    Accesses.push_back(Acc);
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
  /// one is a write (until one is carried, when only that is asked).
  void testAllPairs() {
    // Accesses per array, in access order, so the pairs (and the Deps they
    // produce) come in the order of a scan over all (I, J).
    std::vector<std::vector<size_t>> ByArray(Names.size());
    for (size_t I = 0; I < Accesses.size(); ++I)
      ByArray[static_cast<size_t>(Accesses[I].Array)].push_back(I);
    for (size_t I = 0; I < Accesses.size(); ++I)
      for (size_t J : ByArray[static_cast<size_t>(Accesses[I].Array)])
        if (I != J && (Accesses[I].IsWrite || Accesses[J].IsWrite)) {
          testPair(Accesses[I], Accesses[J]);
          if (Carried)
            return;
        }
  }

  void testPair(const Access &A, const Access &B) {
    if (A.NumSubs != B.NumSubs)
      return; // different dimensionality: treat as distinct objects
    // Common loops: longest common prefix of the enclosing loop chains.
    const size_t *CA = chain(A);
    const size_t *CB = chain(B);
    size_t Common = 0;
    while (Common < depth(A) && Common < depth(B) && CA[Common] == CB[Common])
      ++Common;

    Dirs.assign(Common, '*');
    for (size_t D = 0; D < A.NumSubs; ++D)
      if (!testDim(Subs[A.FirstSub + D], Subs[B.FirstSub + D], A, Common))
        return; // proven independent

    // Keep only dependences with at least one plausible vector.
    DepKind Kind = A.IsWrite ? (B.IsWrite ? DepKind::Output : DepKind::Flow)
                             : DepKind::Anti;
    if (!plausible(Dirs.data(), Common, A.LeafStmt, B.LeafStmt, Kind))
      return;
    if (VerdictOnly) {
      // Dependence::mayBeCarriedBy(0), without building the Dependence.
      Carried = Common > 0 && (Dirs[0] == '<' || Dirs[0] == '*');
      return;
    }
    Dependence Dep;
    Dep.SrcStmt = A.LeafStmt;
    Dep.DstStmt = B.LeafStmt;
    Dep.Array = Names[static_cast<size_t>(A.Array)].Text;
    Dep.IsScalar = A.NumSubs == 0;
    Dep.Kind = Kind;
    Dep.Dirs = Dirs;
    for (size_t L = 0; L < Common; ++L)
      Dep.CommonLoops.push_back(Loops[CA[L]].For);
    Info.Deps.push_back(std::move(Dep));
  }

  /// True when every array subscript but the last has coefficient 0 in the
  /// root loop's variable, and the last has 0 or 1.
  bool unitStride() const {
    for (const Access &A : Accesses)
      for (size_t D = 0; D < A.NumSubs; ++D) {
        const Subscript &S = Subs[A.FirstSub + D];
        int64_t Coeff = 0;
        for (size_t T = S.Begin; T < S.End; ++T)
          if (Terms[T].Depth == 0)
            Coeff = Terms[T].Coeff;
        if (Coeff != 0 && (D + 1 < A.NumSubs || Coeff != 1))
          return false;
      }
    return true;
  }

  /// GCD of the loop-variable coefficients (common and other loops) of both
  /// subscripts; 0 when there are none.
  uint64_t loopGcd(const Subscript &SA, const Subscript &SB) const {
    uint64_t G = 0;
    for (const Subscript *S : {&SA, &SB})
      for (size_t T = S->Begin; T < S->End; ++T)
        if (Terms[T].Depth != NotALoop)
          G = gcdU64(G, magnitude(Terms[T].Coeff));
    return G;
  }

  /// The parameter term of \p S for variable \p Var, or null.
  const Term *paramOf(const Subscript &S, int Var) const {
    for (size_t T = S.Begin; T < S.End; ++T)
      if (Terms[T].Var == Var && Terms[T].Depth == NotALoop)
        return &Terms[T];
    return nullptr;
  }

  /// True when both subscripts have the same parameter terms.
  bool sameParams(const Subscript &SA, const Subscript &SB) const {
    size_t I = SA.Begin;
    size_t J = SB.Begin;
    while (true) {
      while (I < SA.End && Terms[I].Depth != NotALoop)
        ++I;
      while (J < SB.End && Terms[J].Depth != NotALoop)
        ++J;
      if (I == SA.End || J == SB.End)
        return I == SA.End && J == SB.End;
      if (Terms[I].Var != Terms[J].Var || Terms[I].Coeff != Terms[J].Coeff)
        return false;
      ++I;
      ++J;
    }
  }

  /// The constant range of the first common loop driven by \p Var.
  const std::optional<ConstLoop> &constRange(const Access &A, int Var,
                                             size_t Common) const {
    static const std::optional<ConstLoop> None;
    for (size_t L = 0; L < Common; ++L)
      if (Loops[chain(A)[L]].Var == Var)
        return Loops[chain(A)[L]].Range;
    return None;
  }

  /// Per-dimension test; returns false when the dimension proves the pair
  /// independent, otherwise refines Dirs. Every constant difference and
  /// division is overflow-checked: a dimension whose arithmetic overflows
  /// returns true and leaves Dirs alone, so it never proves independence.
  bool testDim(const Subscript &SA, const Subscript &SB, const Access &A,
               size_t Common) {
    // Split each side into common-loop-var, other-loop-var and parameter
    // terms: a term's depth below Common marks a common loop variable.
    const Term *CA = nullptr;
    const Term *CB = nullptr;
    size_t NumCA = 0, NumCB = 0, NumOA = 0, NumOB = 0;
    auto Split = [&](const Subscript &S, const Term *&C, size_t &NumC,
                     size_t &NumO) {
      for (size_t T = S.Begin; T < S.End; ++T) {
        if (Terms[T].Depth < Common) {
          C = &Terms[T];
          ++NumC;
        } else if (Terms[T].Depth != NotALoop) {
          ++NumO;
        }
      }
    };
    Split(SA, CA, NumCA, NumOA);
    Split(SB, CB, NumCB, NumOB);
    const int64_t FA = SA.Constant;
    const int64_t FB = SB.Constant;
    int64_t Diff = 0;

    // Mismatched symbolic parameter parts: the constant distance is unknown,
    // but a symbolic GCD test still proves independence when every
    // coefficient of the parameter difference is a multiple of the gcd of
    // the loop-variable coefficients while the constant difference is not.
    if (!sameParams(SA, SB)) {
      uint64_t G = loopGcd(SA, SB);
      if (G == 0)
        return true;
      for (size_t T = SA.Begin; T < SA.End; ++T) {
        if (Terms[T].Depth != NotALoop)
          continue;
        int64_t PD = Terms[T].Coeff;
        const Term *PB = paramOf(SB, Terms[T].Var);
        if (PB && __builtin_sub_overflow(PD, PB->Coeff, &PD))
          return true;
        if (magnitude(PD) % G != 0)
          return true; // parameters not divisible: unknown
      }
      for (size_t T = SB.Begin; T < SB.End; ++T)
        if (Terms[T].Depth == NotALoop && !paramOf(SA, Terms[T].Var) &&
            magnitude(Terms[T].Coeff) % G != 0)
          return true;
      if (__builtin_sub_overflow(FA, FB, &Diff))
        return true;
      // Symbolic GCD proves independence, or the dependence stays unknown.
      return magnitude(Diff) % G == 0;
    }

    if (NumCA + NumCB + NumOA + NumOB == 0) {
      // ZIV: pure constants (plus matching params).
      return FA == FB;
    }

    bool SingleVar = NumOA == 0 && NumOB == 0 && NumCA == 1 && NumCB == 1 &&
                     CA->Var == CB->Var;

    // Strong SIV: exactly one common var with equal coefficients on both
    // sides, and no other loop vars involved.
    if (SingleVar && CA->Coeff == CB->Coeff) {
      if (__builtin_sub_overflow(FA, FB, &Diff))
        return true;
      Quotient Q = divide(Diff, CA->Coeff);
      if (Q.Kind != Quotient::Exact)
        return Q.Kind == Quotient::Unknown; // non-integer distance: independent
      int64_t Distance = Q.Value; // in value space of the variable
      // The variable only takes values Lo, Lo+Step, ...: a distance that is
      // not a multiple of the step is unrealizable (unrolled loops write
      // interleaved, disjoint element sets).
      for (size_t L = 0; L < Common; ++L) {
        const Loop &Lp = Loops[chain(A)[L]];
        if (Lp.Var != CA->Var)
          continue;
        int64_t Step = Lp.For->Step;
        if (Step > 1 && Distance % Step != 0)
          return false;
      }
      char Dir = Distance > 0 ? '<' : (Distance < 0 ? '>' : '=');
      for (size_t L = 0; L < Common; ++L) {
        if (Loops[chain(A)[L]].Var != CA->Var)
          continue;
        if (!mergeDir(Dirs[L], Dir))
          return false; // conflicting constraints: independent
      }
      return true;
    }

    // The range tests below use the constant iteration facts of the common
    // loop driving the variable, when its bounds are compile-time constants,
    // and treat the loop as covering [First, Limit - 1], not aligned to the
    // step.

    // Weak-zero SIV: a*i + c1 against a constant c2. A dependence needs the
    // single iteration i0 = (c2 - c1)/a; independent when i0 is fractional
    // or falls outside the loop's constant iteration range.
    if (NumOA == 0 && NumOB == 0 && NumCA + NumCB == 1) {
      const Term &VarSide = NumCA == 0 ? *CB : *CA;
      if (NumCA == 0 ? __builtin_sub_overflow(FA, FB, &Diff)
                     : __builtin_sub_overflow(FB, FA, &Diff))
        return true;
      if (VarSide.Coeff != 0) {
        Quotient Q = divide(Diff, VarSide.Coeff);
        if (Q.Kind != Quotient::Exact)
          return Q.Kind == Quotient::Unknown; // no integer solution
        int64_t I0 = Q.Value;
        if (const std::optional<ConstLoop> &R =
                constRange(A, VarSide.Var, Common)) {
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
    if (SingleVar &&
        static_cast<__int128>(CA->Coeff) == -static_cast<__int128>(CB->Coeff) &&
        CA->Coeff != 0) {
      if (__builtin_sub_overflow(FB, FA, &Diff))
        return true;
      Quotient Q = divide(Diff, CA->Coeff);
      if (Q.Kind != Quotient::Exact)
        return Q.Kind == Quotient::Unknown; // crossing off the integers
      int64_t Sum = Q.Value; // i1 + i2 at the crossing
      if (const std::optional<ConstLoop> &R =
              constRange(A, CA->Var, Common)) {
        // Twice an endpoint may leave int64_t; compare in 128 bits.
        __int128 Lo2 = 2 * static_cast<__int128>(R->First);
        __int128 Hi2 = 2 * (static_cast<__int128>(R->Limit) - 1);
        if (Sum < Lo2 || Sum > Hi2 || (Sum - Lo2) % R->Step != 0)
          return false; // no iteration pair reaches the crossing
      }
      return true; // realizable crossing: directions stay '*'
    }

    // GCD test over all loop-variable coefficients.
    if (__builtin_sub_overflow(FA, FB, &Diff))
      return true;
    uint64_t G = loopGcd(SA, SB);
    if (G != 0 && magnitude(Diff) % G != 0)
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

DependenceInfo::RootVerdict
DependenceInfo::carriedByRoot(const ForStmt &Root) {
  DependenceBuilder Builder;
  Builder.VerdictOnly = true;
  Builder.run(Root);
  if (!Builder.Affine)
    return {RootCarry::Unavailable};
  if (Builder.Carried)
    return {RootCarry::Carried};
  return {RootCarry::Independent, Builder.unitStride()};
}

bool DependenceInfo::interchangeLegal(const std::vector<int> &Perm) const {
  for (const Dependence &D : Deps) {
    for (const std::vector<char> &V : D.plausibleVectors()) {
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
    for (const std::vector<char> &V : D.plausibleVectors()) {
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
    for (const std::vector<char> &V : D.plausibleVectors()) {
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
