//===- Evaluator.cpp - MiniC execution and cost evaluation -------------------===//
//
// prepare() lowers the AST once into flat register code; run() executes it.
//
//  - Registers. Scalar slots, constants, loop state and expression
//    temporaries share one file of 64-bit cells. Every operand is resolved
//    to a register index at lowering time, so execution never looks up a
//    name or walks a tree.
//  - Instructions. One array of fixed-size instructions in execution order,
//    with jumps for if/else, && and || (short-circuit) and loop back edges.
//    An instruction's cost-model charge (`K`) is computed at lowering time:
//    the SIMD scale of a program point is static, because only innermost
//    loops vectorize and nothing nests inside them.
//  - Memory accesses. Each array reference becomes an Access descriptor.
//    Affine subscripts (analysis::toAffine) are coefficient/register forms
//    evaluated and bounds-checked inside the load or store instruction; any
//    other subscript is computed by ordinary code and checked by a
//    CheckIndex instruction right after it, so the first failing dimension
//    reports exactly as it would in source order. An arithmetic op whose
//    right operand is a double element is one instruction (AddLoadD...).
//  - Strength reduction. In a loop whose body assigns neither the loop
//    variable nor any other variable of an affine access, the access's flat
//    index is FlatBase + Delta * variable. Each entry to the loop proves the
//    first and last iteration in bounds, which by affinity covers every
//    iteration; when the proof fails the access checks each index as usual
//    and traps at the first out-of-bounds iteration.
//
// Results match a direct walk of the source tree bit for bit
// (tests/EvalParityTest.cpp) because every side effect runs in source
// evaluation order: the cycle additions (the same doubles, added in the
// same order), the CacheSim accesses (same addresses, same order), the
// iteration count and its budget check, and short-circuit evaluation. A
// store's subscripts are charged and checked before its right-hand side
// runs, by an IndexFlat instruction, as the source order requires. A failed
// run stops at its first error, which is the error the run reports.
//
//===----------------------------------------------------------------------===//

#include "src/eval/Evaluator.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/cir/AstUtils.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <queue>
#include <set>

namespace locus {
namespace eval {

using namespace cir;

namespace detail {

//===----------------------------------------------------------------------===//
// Flat code
//===----------------------------------------------------------------------===//

/// One register.
union Cell {
  int64_t I;
  double D;
};

enum class Op : uint8_t {
  // Int arithmetic and comparison: Dst = A op B, charging one int op.
  AddI, SubI, MulI, DivI, ModI, MinI, MaxI,
  LtI, LeI, GtI, GeI, EqI, NeI,
  // Double arithmetic and comparison: counts a flop, charges a double op.
  AddD, SubD, MulD, DivD, MinD, MaxD,
  LtD, LeD, GtD, GeD, EqD, NeD,
  // The same four ops with a double array element (access Aux) as the
  // right operand: the load, then the op.
  AddLoadD, SubLoadD, MulLoadD, DivLoadD,
  // No charge of their own.
  NegI, NegD, NotI, CvtID, NeZ, MovI, MovD,
  // A negation's charge, made before its operand is evaluated.
  ChargeI, ChargeD,
  // Compound scalar assignment: Dst op= A, charging one op.
  AccAddI, AccSubI, AccMulI, AccAddD, AccSubD, AccMulD,
  // Memory, through Access descriptor Aux.
  LoadI, LoadD,     ///< Dst = element
  CheckIndex,       ///< bounds-check register A as dimension B
  IndexFlat,        ///< Dst = checked flat index (a store's target)
  StoreI, StoreD,   ///< element[A] (op)= B; Dst holds the AssignOp
  // Control.
  Jump,       ///< to Aux
  JumpIfZero, ///< to Aux when A == 0
  AndJump,    ///< when A == 0: Dst = 0, jump to Aux
  OrJump,     ///< when A != 0: Dst = 1, jump to Aux
  LoopEnter,  ///< loop Aux from A to B (exclusive)
  LoopNext,
  ParEnter,   ///< the same for a loop whose OpenMP speedup is modeled
  ParNext,
  Fail,       ///< runtime error Messages[Aux]
  Halt,
};

struct Insn {
  Op Code = Op::Halt;
  int32_t Dst = 0;
  int32_t A = 0;
  int32_t B = 0;
  int32_t Aux = 0;
  double K = 0; ///< cycles charged (cost mode only)
};

/// One dimension of an array reference: Const + sum of Coeff * register.
struct DimForm {
  int64_t Const = 0;
  int64_t Extent = 0;
  int64_t Stride = 0;
  uint32_t TermBegin = 0, TermEnd = 0;
};

struct Term {
  int32_t Reg = 0;
  int64_t Coeff = 0;
};

struct Access {
  int32_t Array = 0;
  uint32_t DimBegin = 0, DimEnd = 0;
  /// Int ops in affine subscripts, charged when the index is formed.
  uint32_t Charges = 0;
  double IndexCharge = 0;
  /// ArithScale at this point: scales an L1-hit latency.
  double Scale = 1.0;
  uint64_t Base = 0;
  double *D = nullptr; ///< this run's element storage
  int64_t *I = nullptr;
  /// Strength reduction in the innermost enclosing loop (LoopVar is its
  /// variable's slot): entering the loop sets Hoisted when both end
  /// iterations are in bounds, and FlatBase for this entry.
  int32_t LoopVar = -1;
  int64_t Delta = 0;
  bool Hoisted = false;
  uint64_t FlatBase = 0;
};

/// OpenMP schedule kinds recognized on loops.
enum class Sched : uint8_t { None, Default, Static, Dynamic };

/// What a loop's pragmas ask the cost model for.
struct LoopModel {
  Sched Par = Sched::None;
  int Chunk = 0;
  double VecScale = 1.0; ///< <1 when a SIMD pragma applies
};

struct Loop {
  int32_t Var = 0;     ///< the loop variable's slot
  int32_t Ctr = 0;     ///< register: the iteration value
  int32_t Hi = 0;      ///< register: exclusive bound
  int64_t Step = 1;
  uint32_t Body = 0;   ///< first body instruction
  uint32_t Exit = 0;   ///< first instruction after the loop
  double Overhead = 0; ///< LoopOverhead * ArithScale
  LoopModel Model;
  std::vector<int32_t> Reduced; ///< accesses strength-reduced in this loop
};

struct ArrayInfo {
  std::string Name;
  ElemType Elem = ElemType::Double;
  std::vector<int64_t> Dims;
  std::vector<int64_t> Strides;
  int64_t TotalElems = 0;
  uint64_t Base = 0;
};

struct CompiledProgram {
  EvalOptions Opts;

  // Symbols.
  std::map<std::string, int> ScalarSlots;
  std::vector<ElemType> SlotTypes;
  std::map<std::string, int> ArrayIds;
  std::vector<ArrayInfo> Arrays;

  // Initial state.
  std::vector<std::vector<double>> InitDouble; ///< per array (doubles)
  std::vector<std::vector<int64_t>> InitInt;   ///< per array (ints)
  std::vector<double> InitScalarD;
  std::vector<int64_t> InitScalarI;

  std::string CompileError;
  /// Compile-time model notes surfaced on every RunResult (e.g. OpenMP
  /// speedup not modeled because the loop's safety is unproven).
  std::vector<std::string> Warnings;

  // Code.
  std::vector<Insn> Code;
  std::vector<Access> Accesses;
  std::vector<DimForm> Dims;
  std::vector<Term> Terms;
  std::vector<Loop> Loops;
  std::vector<std::string> Messages;
  std::vector<Cell> InitRegs; ///< constants set, everything else zero
  std::map<int64_t, int32_t> Constants; ///< bit pattern -> register

  // ---- execution state ----
  std::vector<Cell> Regs;
  std::vector<std::vector<double>> DataD;
  std::vector<std::vector<int64_t>> DataI;
  machine::CacheSim *Cache = nullptr;
  double Cycles = 0;
  int L1HitLatency = 4;
  uint64_t Iterations = 0;
  uint64_t ArithOps = 0, MemReads = 0, MemWrites = 0;
  bool Failed = false;
  std::string RunError;
  std::vector<double> IterCosts; ///< of the running modeled-parallel loop

  //===--------------------------------------------------------------------===//
  // Symbols and checking
  //===--------------------------------------------------------------------===//

  void fail(const std::string &Message) {
    if (CompileError.empty())
      CompileError = Message;
  }

  int scalarSlot(const std::string &Name, ElemType Elem, bool Declare) {
    auto It = ScalarSlots.find(Name);
    if (It != ScalarSlots.end())
      return It->second;
    if (!Declare) {
      // Implicitly declared (e.g. a loop variable with no decl): int.
      Elem = ElemType::Int;
    }
    int Slot = static_cast<int>(SlotTypes.size());
    ScalarSlots[Name] = Slot;
    SlotTypes.push_back(Elem);
    return Slot;
  }

  bool slotIsDouble(int Slot) const {
    return SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double;
  }

  void declareArray(const DeclStmt &D) {
    if (ArrayIds.count(D.Name)) {
      fail("array redeclared: " + D.Name);
      return;
    }
    ArrayInfo Info;
    Info.Name = D.Name;
    Info.Elem = D.Elem;
    Info.Dims = D.Dims;
    Info.Strides.assign(D.Dims.size(), 1);
    int64_t Total = 1;
    for (size_t I = D.Dims.size(); I-- > 0;) {
      Info.Strides[I] = Total;
      Total *= D.Dims[I];
    }
    Info.TotalElems = Total;
    int Id = static_cast<int>(Arrays.size());
    ArrayIds[D.Name] = Id;
    Arrays.push_back(std::move(Info));
  }

  /// Deterministic default contents so checksums are reproducible.
  void buildInitialData() {
    uint64_t Base = 4096;
    InitDouble.resize(Arrays.size());
    InitInt.resize(Arrays.size());
    for (size_t Id = 0; Id < Arrays.size(); ++Id) {
      ArrayInfo &A = Arrays[Id];
      A.Base = Base;
      Base += static_cast<uint64_t>(A.TotalElems) * 8 + 128;
      Base = (Base + 63) & ~63ULL;
      if (A.Elem == ElemType::Double) {
        auto &V = InitDouble[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<double>((I * 7 + 3) % 1021) / 1021.0;
      } else {
        auto &V = InitInt[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<int64_t>(I % 13);
      }
    }
    InitScalarD.assign(SlotTypes.size(), 0.0);
    InitScalarI.assign(SlotTypes.size(), 0);
    // Named scalars get stable, nonzero defaults derived from their names so
    // kernels multiplying by alpha/beta do not collapse to zero.
    for (const auto &[Name, Slot] : ScalarSlots) {
      uint64_t H = fnv1a(Name);
      if (SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double)
        InitScalarD[static_cast<size_t>(Slot)] =
            0.5 + static_cast<double>(H % 1000) / 1000.0;
    }
  }

  /// Pass 1 over an expression: creates the scalar slots it names, reports
  /// the first type error, and returns whether its value is a double. The
  /// traversal order fixes implicit slot types and which error is first.
  bool checkExpr(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      return false;
    case ExprKind::FloatLit:
      return true;
    case ExprKind::VarRef: {
      const std::string &Name = cast<VarRef>(&E)->Name;
      if (ArrayIds.count(Name)) {
        fail("array " + Name + " used without subscripts");
        return false;
      }
      return slotIsDouble(scalarSlot(Name, ElemType::Int, /*Declare=*/false));
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      auto It = ArrayIds.find(A->Name);
      if (It == ArrayIds.end()) {
        fail("unknown array: " + A->Name);
        return false;
      }
      const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
      if (A->Indices.size() != Info.Dims.size()) {
        fail("array " + A->Name + " has " + std::to_string(Info.Dims.size()) +
             " dimensions but is subscripted with " +
             std::to_string(A->Indices.size()));
        return false;
      }
      for (const auto &I : A->Indices)
        if (checkExpr(*I)) {
          fail("array subscript of " + A->Name + " has floating type");
          break;
        }
      return Info.Elem == ElemType::Double;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      bool Double = checkExpr(*U->Operand);
      if (U->Op == UnOp::Not) {
        if (Double)
          fail("logical not applied to a floating value");
        return false;
      }
      return Double;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      bool L = checkExpr(*B->Lhs);
      bool R = checkExpr(*B->Rhs);
      if (B->Op == BinOp::Mod && (L || R)) {
        fail("modulo on floating values");
        return false;
      }
      if (isLogic(B->Op)) {
        if (L || R)
          fail("logical operator on floating values");
        return false;
      }
      return (L || R) && !isCompare(B->Op);
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if (isMinMax(*C)) {
        bool L = checkExpr(*C->Args[0]);
        bool R = checkExpr(*C->Args[1]);
        return L || R;
      }
      if (C->Callee == "rtclock" && C->Args.empty())
        return true;
      fail("unknown function in expression: " + C->Callee);
      return false;
    }
    }
    return false;
  }

  static bool isCompare(BinOp Op) {
    return Op == BinOp::Lt || Op == BinOp::Le || Op == BinOp::Gt ||
           Op == BinOp::Ge || Op == BinOp::Eq || Op == BinOp::Ne;
  }
  static bool isLogic(BinOp Op) { return Op == BinOp::And || Op == BinOp::Or; }
  static bool isMinMax(const CallExpr &C) {
    return (C.Callee == "min" || C.Callee == "max") && C.Args.size() == 2;
  }

  /// Parses OpenMP / vectorization pragmas attached to a loop.
  void compileLoopPragmas(const ForStmt &For, LoopModel &Out) {
    bool Vector = false;
    for (const std::string &P : For.Pragmas) {
      std::string_view Text = trimString(P);
      if (startsWith(Text, "omp parallel for")) {
        Out.Par = Sched::Default;
        size_t SchedPos = Text.find("schedule(");
        if (SchedPos != std::string_view::npos) {
          std::string_view Spec = Text.substr(SchedPos + 9);
          size_t Close = Spec.find(')');
          if (Close != std::string_view::npos)
            Spec = Spec.substr(0, Close);
          std::vector<std::string> Parts = splitString(std::string(Spec), ',');
          std::string Kind(trimString(Parts[0]));
          if (Kind == "dynamic")
            Out.Par = Sched::Dynamic;
          else
            Out.Par = Sched::Static;
          if (Parts.size() > 1)
            Out.Chunk = std::atoi(std::string(trimString(Parts[1])).c_str());
        }
      } else if (startsWith(Text, "ivdep") || startsWith(Text, "vector")) {
        Vector = true;
      }
    }
    if (!Opts.CountCost)
      return;
    // OpenMP schedule model gate: only loops the parallel-safety analyzer
    // proves race-free get modeled speedup. Unproven or racy loops still
    // execute (sequentially, so checksums stay exact) but are costed
    // sequentially with a warning — a racy parallelization must not be
    // rewarded by the model. TrustParallel restores the old behavior.
    if (Out.Par != Sched::None && !Opts.TrustParallel) {
      analysis::ParallelSafetyReport Rep = analysis::analyzeParallelLoop(For);
      if (Rep.Verdict != analysis::ParallelVerdict::Safe) {
        Out.Par = Sched::None;
        Out.Chunk = 0;
        Warnings.push_back("not modeling parallel speedup for loop '" +
                           For.Var + "': " + Rep.summary());
      }
    }
    // SIMD model, mirroring an optimizing compiler (the paper's ICC -O3):
    //  - only innermost loops vectorize;
    //  - a loop with a *proven* carried dependence never vectorizes, even
    //    under ivdep;
    //  - a loop whose independence is proven auto-vectorizes without any
    //    pragma;
    //  - an unanalyzable loop vectorizes only when the programmer asserts
    //    independence with ivdep / vector always.
    bool HasInnerLoop = false;
    forEachStmt(*For.Body, [&](const Stmt &S) {
      if (isa<ForStmt>(&S))
        HasInnerLoop = true;
    });
    if (HasInnerLoop)
      return;
    std::optional<analysis::DependenceInfo> Deps =
        analysis::DependenceInfo::compute(For);
    if (Deps) {
      for (const analysis::Dependence &D : Deps->deps())
        if (D.mayBeCarriedBy(0))
          return; // proven carried dependence: no SIMD
      // Proven independent: auto-vectorize.
    } else if (!Vector) {
      return; // unprovable and no ivdep: the compiler stays scalar
    }
    bool AllUnitStride = true;
    forEachStmt(*For.Body, [&](const Stmt &S) {
      forEachExpr(S, [&](const ExprPtr &E) {
        const std::function<void(const Expr &)> Scan = [&](const Expr &Sub) {
          if (const auto *A = dyn_cast<ArrayRef>(&Sub)) {
            for (size_t I = 0; I < A->Indices.size(); ++I) {
              std::optional<analysis::AffineExpr> Aff =
                  analysis::toAffine(*A->Indices[I]);
              int64_t Coeff = Aff ? Aff->coeff(For.Var) : 1;
              if (!Aff && referencesVar(*A->Indices[I], For.Var))
                AllUnitStride = false;
              else if (I + 1 == A->Indices.size()) {
                if (Coeff != 0 && Coeff != 1)
                  AllUnitStride = false;
              } else if (Coeff != 0) {
                AllUnitStride = false;
              }
            }
          } else if (const auto *B = dyn_cast<BinaryExpr>(&Sub)) {
            Scan(*B->Lhs);
            Scan(*B->Rhs);
          } else if (const auto *U = dyn_cast<UnaryExpr>(&Sub)) {
            Scan(*U->Operand);
          } else if (const auto *C = dyn_cast<CallExpr>(&Sub)) {
            for (const auto &Arg : C->Args)
              Scan(*Arg);
          }
        };
        Scan(*E);
      });
    });
    double W = static_cast<double>(Opts.Machine.VectorWidthDoubles);
    Out.VecScale = AllUnitStride ? 1.0 / W : 2.0 / W;
    if (Out.VecScale > 1.0)
      Out.VecScale = 1.0;
  }

  /// Pass 1 over a statement: declares its arrays and slots and checks it,
  /// right-hand sides before targets, as expressions are typed.
  void checkStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Block:
      for (const auto &Sub : cast<Block>(&S)->Stmts)
        checkStmt(*Sub);
      return;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      if (D->isArray()) {
        declareArray(*D);
        return;
      }
      scalarSlot(D->Name, D->Elem, /*Declare=*/true);
      if (D->Init)
        checkExpr(*D->Init);
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      int Slot = scalarSlot(F->Var, ElemType::Int, /*Declare=*/false);
      if (slotIsDouble(Slot)) {
        fail("loop variable " + F->Var + " must be an int");
        return;
      }
      bool InitDouble = checkExpr(*F->Init);
      bool BoundDouble = checkExpr(*F->Bound);
      if (InitDouble || BoundDouble) {
        fail("loop bounds of " + F->Var + " must be integers");
        return;
      }
      for (const auto &Sub : F->Body->Stmts)
        checkStmt(*Sub);
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      checkExpr(*I->Cond);
      for (const auto &Sub : I->Then->Stmts)
        checkStmt(*Sub);
      if (I->Else)
        for (const auto &Sub : I->Else->Stmts)
          checkStmt(*Sub);
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      bool RhsDouble = checkExpr(*A->Rhs);
      if (const auto *V = dyn_cast<VarRef>(A->Lhs.get())) {
        // The first assignment of an undeclared scalar fixes its type from
        // the RHS (harness temporaries like t_start).
        bool Known = ScalarSlots.count(V->Name) != 0;
        scalarSlot(V->Name, RhsDouble ? ElemType::Double : ElemType::Int,
                   /*Declare=*/!Known);
      } else if (const auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get())) {
        auto It = ArrayIds.find(Arr->Name);
        if (It == ArrayIds.end()) {
          fail("unknown array: " + Arr->Name);
          return;
        }
        const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
        if (Arr->Indices.size() != Info.Dims.size()) {
          fail("array " + Arr->Name + " subscript arity mismatch");
          return;
        }
        for (const auto &I : Arr->Indices)
          if (checkExpr(*I)) {
            fail("array subscript of " + Arr->Name + " has floating type");
            return;
          }
      } else {
        fail("unsupported assignment target");
      }
      return;
    }
    case StmtKind::CallStmt: {
      const auto *C = cast<CallStmt>(&S);
      const auto *Call = cast<CallExpr>(C->Call.get());
      static const char *Harness[] = {"init_array", "print_array", "printf",
                                      "rtclock", "free"};
      for (const char *H : Harness)
        if (Call->Callee == H)
          return; // no-op
      fail("unknown call statement: " + Call->Callee +
           " (was a placeholder left unexpanded?)");
      return;
    }
    }
  }

  /// Models the parallel execution time of a loop from per-iteration costs.
  double scheduleTime(const std::vector<double> &IterCosts, Sched Par,
                      int Chunk) {
    int Cores = std::max(1, Opts.Machine.Cores);
    size_t N = IterCosts.size();
    if (N == 0)
      return 0;
    if (Cores == 1) {
      double Sum = 0;
      for (double C : IterCosts)
        Sum += C;
      return Sum;
    }
    if (Par == Sched::Dynamic) {
      int C = Chunk > 0 ? Chunk : 1;
      // Greedy list scheduling: each core takes the next chunk when free.
      std::priority_queue<double, std::vector<double>, std::greater<double>>
          CoreTimes;
      for (int I = 0; I < Cores; ++I)
        CoreTimes.push(0.0);
      for (size_t Begin = 0; Begin < N; Begin += static_cast<size_t>(C)) {
        double ChunkCost = Opts.Machine.DynamicChunkOverhead;
        for (size_t I = Begin; I < std::min(N, Begin + static_cast<size_t>(C));
             ++I)
          ChunkCost += IterCosts[I];
        double T = CoreTimes.top();
        CoreTimes.pop();
        CoreTimes.push(T + ChunkCost);
      }
      double Max = 0;
      while (!CoreTimes.empty()) {
        Max = std::max(Max, CoreTimes.top());
        CoreTimes.pop();
      }
      return Max;
    }
    // Static: chunked round-robin; default schedule = one contiguous block
    // per core.
    size_t C = Chunk > 0 ? static_cast<size_t>(Chunk)
                         : (N + static_cast<size_t>(Cores) - 1) /
                               static_cast<size_t>(Cores);
    std::vector<double> CoreSums(static_cast<size_t>(Cores), 0.0);
    size_t Core = 0;
    for (size_t Begin = 0; Begin < N; Begin += C) {
      for (size_t I = Begin; I < std::min(N, Begin + C); ++I)
        CoreSums[Core] += IterCosts[I];
      Core = (Core + 1) % static_cast<size_t>(Cores);
    }
    double Max = 0;
    for (double T : CoreSums)
      Max = std::max(Max, T);
    return Max;
  }

  //===--------------------------------------------------------------------===//
  // Pass 2: lowering to flat code, in execution order
  //===--------------------------------------------------------------------===//

  struct Val {
    int32_t Reg;
    bool Double;
  };

  double Scale = 1.0;             ///< ArithScale of the code being lowered
  bool InModeledParallel = false; ///< inside a loop whose speedup is modeled
  int32_t NumRegs = 0;
  /// The innermost loop being lowered and the names its body assigns.
  struct LoopScope {
    int32_t Id;
    const ForStmt *For;
    std::set<std::string> Assigned;
  };
  std::vector<LoopScope> Scopes;

  static void collectAssigned(const Stmt &S, std::set<std::string> &Out) {
    forEachStmt(S, [&](const Stmt &Sub) {
      if (const auto *F = dyn_cast<ForStmt>(&Sub))
        Out.insert(F->Var);
      else if (const auto *D = dyn_cast<DeclStmt>(&Sub))
        Out.insert(D->Name);
      else if (const auto *A = dyn_cast<AssignStmt>(&Sub))
        if (const auto *V = dyn_cast<VarRef>(A->Lhs.get()))
          Out.insert(V->Name);
    });
  }

  int32_t newReg() { return NumRegs++; }

  uint32_t emit(Op O, int32_t Dst = 0, int32_t A = 0, int32_t B = 0,
                int32_t Aux = 0, double K = 0) {
    Code.push_back(Insn{O, Dst, A, B, Aux, K});
    return static_cast<uint32_t>(Code.size() - 1);
  }

  void patchTarget(uint32_t At) {
    Code[At].Aux = static_cast<int32_t>(Code.size());
  }

  double intCharge() const { return Opts.Machine.ArithCost * 0.5 * Scale; }
  double doubleCharge() const { return Opts.Machine.ArithCost * Scale; }

  /// The register preset to \p Bits (an int and a double with the same
  /// bits share one).
  int32_t constant(int64_t Bits) {
    auto [It, New] = Constants.try_emplace(Bits, NumRegs);
    if (New)
      ++NumRegs;
    return It->second;
  }
  int32_t constI(int64_t V) { return constant(V); }
  int32_t constD(double V) {
    int64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    return constant(Bits);
  }

  bool exprIsDouble(const Expr &E) const {
    switch (E.kind()) {
    case ExprKind::IntLit:
      return false;
    case ExprKind::FloatLit:
      return true;
    case ExprKind::VarRef:
      return slotIsDouble(ScalarSlots.at(cast<VarRef>(&E)->Name));
    case ExprKind::ArrayRef:
      return Arrays[static_cast<size_t>(
                        ArrayIds.at(cast<ArrayRef>(&E)->Name))]
                 .Elem == ElemType::Double;
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      return U->Op != UnOp::Not && exprIsDouble(*U->Operand);
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      return !isLogic(B->Op) && !isCompare(B->Op) &&
             (exprIsDouble(*B->Lhs) || exprIsDouble(*B->Rhs));
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if (isMinMax(*C))
        return exprIsDouble(*C->Args[0]) || exprIsDouble(*C->Args[1]);
      return true; // rtclock
    }
    }
    return false;
  }

  /// Int ops an affine subscript performs: one per operator node.
  static uint32_t countOps(const Expr &E) {
    switch (E.kind()) {
    case ExprKind::Unary:
      return 1 + countOps(*cast<UnaryExpr>(&E)->Operand);
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      return 1 + countOps(*B->Lhs) + countOps(*B->Rhs);
    }
    case ExprKind::Call: {
      uint32_t N = 1;
      for (const auto &A : cast<CallExpr>(&E)->Args)
        N += countOps(*A);
      return N;
    }
    default:
      return 0;
    }
  }

  /// Moves \p V into \p Dst when a destination is requested.
  Val place(Val V, int32_t Dst) {
    if (Dst < 0 || Dst == V.Reg)
      return V;
    emit(V.Double ? Op::MovD : Op::MovI, Dst, V.Reg);
    return {Dst, V.Double};
  }

  Val toDouble(Val V) {
    if (V.Double)
      return V;
    int32_t R = newReg();
    emit(Op::CvtID, R, V.Reg);
    return {R, true};
  }

  /// Builds the Access for reference \p A. When every subscript is affine
  /// the load/store instruction forms and checks the indices itself;
  /// otherwise each subscript is computed here and checked right after.
  int32_t lowerAccess(const ArrayRef &A) {
    int Id = ArrayIds.at(A.Name);
    const ArrayInfo &Info = Arrays[static_cast<size_t>(Id)];
    int32_t AccId = static_cast<int32_t>(Accesses.size());
    Accesses.emplace_back(); // reserved: subscripts may nest accesses
    Access Ac;
    Ac.Array = Id;
    Ac.Base = Info.Base;
    Ac.Scale = Scale;
    Ac.IndexCharge = intCharge();
    std::vector<std::optional<analysis::AffineExpr>> Forms;
    bool AllAffine = true;
    for (const auto &Idx : A.Indices) {
      Forms.push_back(analysis::toAffine(*Idx));
      AllAffine = AllAffine && Forms.back();
    }
    std::vector<int32_t> Computed;
    if (!AllAffine)
      for (size_t D = 0; D < A.Indices.size(); ++D) {
        Val V = lowerExpr(*A.Indices[D]);
        emit(Op::CheckIndex, 0, V.Reg, static_cast<int32_t>(D), AccId);
        Computed.push_back(V.Reg);
      }
    Ac.DimBegin = static_cast<uint32_t>(Dims.size());
    for (size_t D = 0; D < A.Indices.size(); ++D) {
      DimForm F;
      F.Extent = Info.Dims[D];
      F.Stride = Info.Strides[D];
      F.TermBegin = static_cast<uint32_t>(Terms.size());
      if (AllAffine) {
        F.Const = Forms[D]->constant();
        for (const auto &[Name, Coeff] : Forms[D]->coeffs())
          Terms.push_back({ScalarSlots.at(Name), Coeff});
        Ac.Charges += countOps(*A.Indices[D]);
      } else {
        Terms.push_back({Computed[D], 1});
      }
      F.TermEnd = static_cast<uint32_t>(Terms.size());
      Dims.push_back(F);
    }
    Ac.DimEnd = static_cast<uint32_t>(Dims.size());
    if (AllAffine && !Scopes.empty() && Scopes.back().For->Step > 0) {
      const LoopScope &L = Scopes.back();
      bool Invariant = !L.Assigned.count(L.For->Var);
      for (const auto &F : Forms)
        for (const auto &[Name, Coeff] : F->coeffs()) {
          if (Name == L.For->Var)
            Ac.Delta += Coeff * Info.Strides[&F - Forms.data()];
          else
            Invariant = Invariant && !L.Assigned.count(Name);
        }
      if (Invariant) {
        Ac.LoopVar = ScalarSlots.at(L.For->Var);
        Loops[static_cast<size_t>(L.Id)].Reduced.push_back(AccId);
      }
    }
    Accesses[static_cast<size_t>(AccId)] = Ac;
    return AccId;
  }

  /// Emits code computing \p E, into \p Dst when given (the root node
  /// writes it, after every read of its operands).
  Val lowerExpr(const Expr &E, int32_t Dst = -1) {
    switch (E.kind()) {
    case ExprKind::IntLit:
      return place({constI(cast<IntLit>(&E)->Value), false}, Dst);
    case ExprKind::FloatLit:
      return place({constD(cast<FloatLit>(&E)->Value), true}, Dst);
    case ExprKind::VarRef: {
      int Slot = ScalarSlots.at(cast<VarRef>(&E)->Name);
      return place({Slot, slotIsDouble(Slot)}, Dst);
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      int32_t Acc = lowerAccess(*A);
      bool Double = Arrays[static_cast<size_t>(Accesses[Acc].Array)].Elem ==
                    ElemType::Double;
      int32_t R = Dst >= 0 ? Dst : newReg();
      emit(Double ? Op::LoadD : Op::LoadI, R, 0, 0, Acc);
      return {R, Double};
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      if (U->Op == UnOp::Not) {
        Val O = lowerExpr(*U->Operand);
        int32_t R = Dst >= 0 ? Dst : newReg();
        emit(Op::NotI, R, O.Reg);
        return {R, false};
      }
      // A negation is charged before its operand runs.
      uint32_t Charge = emit(Op::ChargeI, 0, 0, 0, 0, intCharge());
      Val O = lowerExpr(*U->Operand);
      if (O.Double) {
        Code[Charge].Code = Op::ChargeD;
        Code[Charge].K = doubleCharge();
      }
      int32_t R = Dst >= 0 ? Dst : newReg();
      emit(O.Double ? Op::NegD : Op::NegI, R, O.Reg);
      return {R, O.Double};
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      if (isLogic(B->Op)) {
        Val L = lowerExpr(*B->Lhs);
        int32_t R = Dst >= 0 ? Dst : newReg();
        uint32_t Short =
            emit(B->Op == BinOp::And ? Op::AndJump : Op::OrJump, R, L.Reg);
        Val Rv = lowerExpr(*B->Rhs);
        emit(Op::NeZ, R, Rv.Reg);
        patchTarget(Short);
        return {R, false};
      }
      Val L = lowerExpr(*B->Lhs);
      if (const auto *Elem = dyn_cast<ArrayRef>(B->Rhs.get());
          Elem && exprIsDouble(*Elem) && !isCompare(B->Op)) {
        // Arithmetic (Add..Div; Mod is int-only) on a double element.
        L = toDouble(L);
        int32_t Acc = lowerAccess(*Elem);
        int32_t R = Dst >= 0 ? Dst : newReg();
        static const Op Fused[] = {Op::AddLoadD, Op::SubLoadD, Op::MulLoadD,
                                   Op::DivLoadD};
        emit(Fused[static_cast<size_t>(B->Op)], R, L.Reg, 0, Acc,
             doubleCharge());
        return {R, true};
      }
      Val Rv = lowerExpr(*B->Rhs);
      bool Double = L.Double || Rv.Double;
      if (Double) {
        L = toDouble(L);
        Rv = toDouble(Rv);
      }
      int32_t R = Dst >= 0 ? Dst : newReg();
      emit(binaryOp(B->Op, Double), R, L.Reg, Rv.Reg, 0,
           Double ? doubleCharge() : intCharge());
      return {R, Double && !isCompare(B->Op)};
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if (!isMinMax(*C))
        return place({constD(0.0), true}, Dst); // rtclock()
      Val L = lowerExpr(*C->Args[0]);
      Val Rv = lowerExpr(*C->Args[1]);
      bool Double = L.Double || Rv.Double;
      if (Double) {
        L = toDouble(L);
        Rv = toDouble(Rv);
      }
      bool Min = C->Callee == "min";
      int32_t R = Dst >= 0 ? Dst : newReg();
      emit(Double ? (Min ? Op::MinD : Op::MaxD) : (Min ? Op::MinI : Op::MaxI),
           R, L.Reg, Rv.Reg, 0, Double ? doubleCharge() : intCharge());
      return {R, Double};
    }
    }
    return {0, false};
  }

  static Op binaryOp(BinOp B, bool Double) {
    switch (B) {
    case BinOp::Add:
      return Double ? Op::AddD : Op::AddI;
    case BinOp::Sub:
      return Double ? Op::SubD : Op::SubI;
    case BinOp::Mul:
      return Double ? Op::MulD : Op::MulI;
    case BinOp::Div:
      return Double ? Op::DivD : Op::DivI;
    case BinOp::Mod:
      return Op::ModI;
    case BinOp::Lt:
      return Double ? Op::LtD : Op::LtI;
    case BinOp::Le:
      return Double ? Op::LeD : Op::LeI;
    case BinOp::Gt:
      return Double ? Op::GtD : Op::GtI;
    case BinOp::Ge:
      return Double ? Op::GeD : Op::GeI;
    case BinOp::Eq:
      return Double ? Op::EqD : Op::EqI;
    default:
      return Double ? Op::NeD : Op::NeI;
    }
  }

  void lowerFail(const std::string &Message) {
    emit(Op::Fail, 0, 0, 0, static_cast<int32_t>(Messages.size()));
    Messages.push_back(Message);
  }

  void lowerScalarAssign(int Slot, AssignOp AOp, const Expr &Rhs) {
    bool TargetDouble = slotIsDouble(Slot);
    bool RhsDouble = exprIsDouble(Rhs);
    if (!TargetDouble && RhsDouble) {
      lowerFail("assigning a floating value to int scalar");
      return;
    }
    if (AOp == AssignOp::Set) {
      if (TargetDouble == RhsDouble)
        lowerExpr(Rhs, Slot);
      else
        emit(Op::CvtID, Slot, lowerExpr(Rhs).Reg);
      return;
    }
    Val V = lowerExpr(Rhs);
    if (TargetDouble)
      V = toDouble(V);
    static const Op AccI[] = {Op::MovI, Op::AccAddI, Op::AccSubI, Op::AccMulI};
    static const Op AccD[] = {Op::MovD, Op::AccAddD, Op::AccSubD, Op::AccMulD};
    size_t Index = static_cast<size_t>(AOp);
    emit(TargetDouble ? AccD[Index] : AccI[Index], Slot, V.Reg, 0, 0,
         TargetDouble ? doubleCharge() : intCharge());
  }

  void lowerArrayAssign(const ArrayRef &Lhs, AssignOp AOp, const Expr &Rhs) {
    // The target's subscripts are evaluated and checked before the RHS.
    int32_t Acc = lowerAccess(Lhs);
    int32_t Flat = newReg();
    emit(Op::IndexFlat, Flat, 0, 0, Acc);
    bool TargetDouble =
        Arrays[static_cast<size_t>(Accesses[Acc].Array)].Elem ==
        ElemType::Double;
    bool RhsDouble = exprIsDouble(Rhs);
    if (!TargetDouble && RhsDouble) {
      lowerFail("assigning a floating value to int array");
      return;
    }
    Val V = lowerExpr(Rhs);
    if (TargetDouble)
      V = toDouble(V);
    emit(TargetDouble ? Op::StoreD : Op::StoreI, static_cast<int32_t>(AOp),
         Flat, V.Reg, Acc, TargetDouble ? doubleCharge() : intCharge());
  }

  void lowerLoop(const ForStmt &F) {
    LoopModel M;
    compileLoopPragmas(F, M);
    Val Lo = lowerExpr(*F.Init);
    Val Hi = lowerExpr(*F.Bound);
    if (F.Op == BoundOp::Le) {
      int32_t R = newReg();
      emit(Op::AddI, R, Hi.Reg, constI(1), 0, intCharge());
      Hi.Reg = R;
    }
    bool Parallel =
        M.Par != Sched::None && Opts.CountCost && !InModeledParallel;
    bool Vector = M.VecScale < 1.0 && Opts.CountCost;
    double SavedScale = Scale;
    if (Vector)
      Scale *= M.VecScale;
    Loop L;
    L.Var = ScalarSlots.at(F.Var);
    L.Ctr = newReg();
    L.Hi = newReg();
    L.Step = F.Step;
    L.Overhead = Opts.Machine.LoopOverhead * Scale;
    L.Model = M;
    int32_t Id = static_cast<int32_t>(Loops.size());
    Loops.push_back(L);
    emit(Parallel ? Op::ParEnter : Op::LoopEnter, 0, Lo.Reg, Hi.Reg, Id);
    Loops[static_cast<size_t>(Id)].Body = static_cast<uint32_t>(Code.size());
    bool SavedParallel = InModeledParallel;
    InModeledParallel = InModeledParallel || Parallel;
    Scopes.push_back({Id, &F, {}});
    collectAssigned(*F.Body, Scopes.back().Assigned);
    for (const auto &Sub : F.Body->Stmts)
      lowerStmt(*Sub);
    Scopes.pop_back();
    InModeledParallel = SavedParallel;
    Scale = SavedScale;
    emit(Parallel ? Op::ParNext : Op::LoopNext, 0, 0, 0, Id);
    Loops[static_cast<size_t>(Id)].Exit = static_cast<uint32_t>(Code.size());
  }

  void lowerStmt(const Stmt &S) {
    switch (S.kind()) {
    case StmtKind::Block:
      for (const auto &Sub : cast<Block>(&S)->Stmts)
        lowerStmt(*Sub);
      return;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      if (!D->isArray() && D->Init)
        lowerScalarAssign(ScalarSlots.at(D->Name), AssignOp::Set, *D->Init);
      return;
    }
    case StmtKind::For:
      lowerLoop(*cast<ForStmt>(&S));
      return;
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      Val C = lowerExpr(*I->Cond);
      if (C.Double) {
        int32_t R = newReg();
        emit(Op::NeD, R, C.Reg, constD(0.0), 0, doubleCharge());
        C = {R, false};
      }
      uint32_t ToElse = emit(Op::JumpIfZero, 0, C.Reg);
      for (const auto &Sub : I->Then->Stmts)
        lowerStmt(*Sub);
      if (I->Else) {
        uint32_t ToEnd = emit(Op::Jump);
        patchTarget(ToElse);
        for (const auto &Sub : I->Else->Stmts)
          lowerStmt(*Sub);
        patchTarget(ToEnd);
      } else {
        patchTarget(ToElse);
      }
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      if (const auto *V = dyn_cast<VarRef>(A->Lhs.get()))
        lowerScalarAssign(ScalarSlots.at(V->Name), A->Op, *A->Rhs);
      else
        lowerArrayAssign(*cast<ArrayRef>(A->Lhs.get()), A->Op, *A->Rhs);
      return;
    }
    case StmtKind::CallStmt:
      return; // harness calls are no-ops
    }
  }

  Status compile(const cir::Program &P) {
    for (const auto &G : P.Globals) {
      if (G->isArray()) {
        declareArray(*G);
      } else {
        scalarSlot(G->Name, G->Elem, /*Declare=*/true);
        if (G->Init)
          checkExpr(*G->Init);
      }
    }
    for (const auto &S : P.Body->Stmts)
      checkStmt(*S);
    if (!CompileError.empty())
      return Status::error(CompileError);
    buildInitialData();
    L1HitLatency =
        Opts.Machine.Levels.empty() ? 0 : Opts.Machine.Levels[0].HitLatency;

    NumRegs = static_cast<int32_t>(SlotTypes.size());
    for (const auto &G : P.Globals)
      if (!G->isArray() && G->Init)
        lowerScalarAssign(ScalarSlots.at(G->Name), AssignOp::Set, *G->Init);
    for (const auto &S : P.Body->Stmts)
      lowerStmt(*S);
    emit(Op::Halt);
    InitRegs.assign(static_cast<size_t>(NumRegs), Cell{0});
    for (const auto &[Bits, Reg] : Constants)
      InitRegs[static_cast<size_t>(Reg)].I = Bits;
    return Status::success();
  }

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  void runtimeFail(const std::string &Message) {
    Failed = true;
    RunError = Message;
  }

  void outOfBounds(const Access &Ac, uint32_t Dim, int64_t Idx) {
    const ArrayInfo &A = Arrays[static_cast<size_t>(Ac.Array)];
    runtimeFail("index " + std::to_string(Idx) + " out of bounds for " +
                A.Name + " dim " + std::to_string(Dim) + " (size " +
                std::to_string(A.Dims[Dim]) + ")");
  }

  /// On entry to \p L, iterating from \p First to \p Last: strength-reduces
  /// each of its accesses whose indices are in bounds at both ends.
  void enterReduced(const Loop &L, const Cell *R, int64_t First,
                    int64_t Last) {
    for (int32_t Id : L.Reduced) {
      Access &Ac = Accesses[static_cast<size_t>(Id)];
      Ac.Hoisted = true;
      __int128 FlatFirst = 0;
      for (uint32_t D = Ac.DimBegin; D < Ac.DimEnd && Ac.Hoisted; ++D) {
        const DimForm &F = Dims[D];
        __int128 AtFirst = F.Const, AtLast = F.Const;
        for (uint32_t T = F.TermBegin; T < F.TermEnd; ++T) {
          const Term &X = Terms[T];
          bool IsVar = X.Reg == Ac.LoopVar;
          AtFirst += static_cast<__int128>(X.Coeff) *
                     (IsVar ? First : R[X.Reg].I);
          AtLast += static_cast<__int128>(X.Coeff) *
                    (IsVar ? Last : R[X.Reg].I);
        }
        Ac.Hoisted = AtFirst >= 0 && AtFirst < F.Extent && AtLast >= 0 &&
                     AtLast < F.Extent;
        FlatFirst += AtFirst * F.Stride;
      }
      if (Ac.Hoisted)
        Ac.FlatBase = static_cast<uint64_t>(static_cast<int64_t>(FlatFirst)) -
                      static_cast<uint64_t>(Ac.Delta) *
                          static_cast<uint64_t>(First);
    }
  }

  /// The interpreter loop. The counters live in locals (registers) and are
  /// published on every exit.
  template <bool Cost> void exec() {
    Cell *R = Regs.data();
    const Insn *Base = Code.data();
    const Insn *PC = Base;
    const DimForm *DimsP = Dims.data();
    const Term *TermsP = Terms.data();
    machine::CacheSim *Sim = Cache;
    const int L1 = L1HitLatency;
    const uint64_t MaxIterations = Opts.MaxIterations;
    double Cyc = 0, ParStart = 0, IterMark = 0;
    uint64_t Iter = 0, Ops = 0, Reads = 0, Writes = 0;

    auto Done = [&] {
      Cycles = Cyc;
      Iterations = Iter;
      ArithOps = Ops;
      MemReads = Reads;
      MemWrites = Writes;
    };
    // Forms and checks an access's flat element index.
    auto Index = [&](const Access &Ac, int64_t &Flat) {
      if (Ac.Hoisted) {
        Flat = static_cast<int64_t>(
            Ac.FlatBase + static_cast<uint64_t>(Ac.Delta) *
                              static_cast<uint64_t>(R[Ac.LoopVar].I));
      } else {
        int64_t Sum = 0;
        for (uint32_t D = Ac.DimBegin; D < Ac.DimEnd; ++D) {
          const DimForm &F = DimsP[D];
          int64_t Idx = F.Const;
          for (uint32_t T = F.TermBegin; T < F.TermEnd; ++T)
            Idx += TermsP[T].Coeff * R[TermsP[T].Reg].I;
          if (Idx < 0 || Idx >= F.Extent) {
            outOfBounds(Ac, D - Ac.DimBegin, Idx);
            return false;
          }
          Sum += Idx * F.Stride;
        }
        Flat = Sum;
      }
      if constexpr (Cost)
        for (uint32_t C = 0; C < Ac.Charges; ++C)
          Cyc += Ac.IndexCharge;
      return true;
    };
    auto Memory = [&](const Access &Ac, int64_t Flat, bool IsWrite) {
      int Latency =
          Sim->access(Ac.Base + static_cast<uint64_t>(Flat) * 8, IsWrite);
      // Vectorization hides latency only for cache-resident data.
      if (Latency <= L1)
        Cyc += Latency * Ac.Scale;
      else
        Cyc += Latency;
    };
    // Starts an iteration with value V; false when the budget is spent.
    auto Begin = [&](const Loop &L, int64_t V, bool Parallel) {
      R[L.Var].I = V;
      if (++Iter > MaxIterations) {
        runtimeFail("iteration budget exceeded");
        return false;
      }
      if (Parallel)
        IterMark = Cyc;
      if constexpr (Cost)
        Cyc += L.Overhead;
      return true;
    };
    // Rewinds the clock from the sequential run of a modeled-parallel loop
    // to its modeled parallel time.
    auto FinishParallel = [&](const Loop &L) {
      double ParTime = scheduleTime(IterCosts, L.Model.Par, L.Model.Chunk) +
                       Opts.Machine.ParallelSpawnOverhead;
      Cyc = ParStart + ParTime;
    };

    for (;;) {
      const Insn &I = *PC++;
      switch (I.Code) {
#define LOCUS_INT_OP(NAME, EXPR)                                               \
  case Op::NAME: {                                                             \
    int64_t L = R[I.A].I, Rv = R[I.B].I;                                       \
    R[I.Dst].I = (EXPR);                                                       \
    if constexpr (Cost)                                                        \
      Cyc += I.K;                                                              \
    break;                                                                     \
  }
#define LOCUS_DOUBLE_OP(NAME, TYPE, EXPR)                                      \
  case Op::NAME: {                                                             \
    double L = R[I.A].D, Rv = R[I.B].D;                                        \
    R[I.Dst].TYPE = (EXPR);                                                    \
    ++Ops;                                                                     \
    if constexpr (Cost)                                                        \
      Cyc += I.K;                                                              \
    break;                                                                     \
  }
        LOCUS_INT_OP(AddI, L + Rv)
        LOCUS_INT_OP(SubI, L - Rv)
        LOCUS_INT_OP(MulI, L * Rv)
        LOCUS_INT_OP(MinI, std::min(L, Rv))
        LOCUS_INT_OP(MaxI, std::max(L, Rv))
        LOCUS_INT_OP(LtI, L < Rv)
        LOCUS_INT_OP(LeI, L <= Rv)
        LOCUS_INT_OP(GtI, L > Rv)
        LOCUS_INT_OP(GeI, L >= Rv)
        LOCUS_INT_OP(EqI, L == Rv)
        LOCUS_INT_OP(NeI, L != Rv)
        LOCUS_DOUBLE_OP(AddD, D, L + Rv)
        LOCUS_DOUBLE_OP(SubD, D, L - Rv)
        LOCUS_DOUBLE_OP(MulD, D, L * Rv)
        LOCUS_DOUBLE_OP(DivD, D, L / Rv)
        LOCUS_DOUBLE_OP(MinD, D, std::min(L, Rv))
        LOCUS_DOUBLE_OP(MaxD, D, std::max(L, Rv))
        LOCUS_DOUBLE_OP(LtD, I, L < Rv)
        LOCUS_DOUBLE_OP(LeD, I, L <= Rv)
        LOCUS_DOUBLE_OP(GtD, I, L > Rv)
        LOCUS_DOUBLE_OP(GeD, I, L >= Rv)
        LOCUS_DOUBLE_OP(EqD, I, L == Rv)
        LOCUS_DOUBLE_OP(NeD, I, L != Rv)
#undef LOCUS_INT_OP
#undef LOCUS_DOUBLE_OP
      case Op::DivI:
      case Op::ModI: {
        int64_t L = R[I.A].I, Rv = R[I.B].I;
        if constexpr (Cost)
          Cyc += I.K;
        if (Rv == 0) {
          runtimeFail(I.Code == Op::DivI ? "integer division by zero"
                                         : "integer modulo by zero");
          return Done();
        }
        R[I.Dst].I = I.Code == Op::DivI ? L / Rv : L % Rv;
        break;
      }
      case Op::NegI:
        R[I.Dst].I = -R[I.A].I;
        break;
      case Op::NegD:
        R[I.Dst].D = -R[I.A].D;
        break;
      case Op::NotI:
        R[I.Dst].I = R[I.A].I == 0;
        break;
      case Op::CvtID:
        R[I.Dst].D = static_cast<double>(R[I.A].I);
        break;
      case Op::NeZ:
        R[I.Dst].I = R[I.A].I != 0;
        break;
      case Op::MovI:
      case Op::MovD:
        R[I.Dst] = R[I.A];
        break;
      case Op::ChargeD:
        ++Ops;
        [[fallthrough]];
      case Op::ChargeI:
        if constexpr (Cost)
          Cyc += I.K;
        break;
      case Op::AccAddI:
      case Op::AccSubI:
      case Op::AccMulI: {
        if constexpr (Cost)
          Cyc += I.K;
        int64_t &T = R[I.Dst].I, V = R[I.A].I;
        T = I.Code == Op::AccAddI ? T + V
            : I.Code == Op::AccSubI ? T - V
                                    : T * V;
        break;
      }
      case Op::AccAddD:
      case Op::AccSubD:
      case Op::AccMulD: {
        ++Ops;
        if constexpr (Cost)
          Cyc += I.K;
        double &T = R[I.Dst].D, V = R[I.A].D;
        T = I.Code == Op::AccAddD ? T + V
            : I.Code == Op::AccSubD ? T - V
                                    : T * V;
        break;
      }
      case Op::AddLoadD:
      case Op::SubLoadD:
      case Op::MulLoadD:
      case Op::DivLoadD: {
        const Access &Ac = Accesses[static_cast<size_t>(I.Aux)];
        int64_t Flat;
        if (!Index(Ac, Flat))
          return Done();
        ++Reads;
        if constexpr (Cost)
          Memory(Ac, Flat, /*IsWrite=*/false);
        double L = R[I.A].D, Rv = Ac.D[Flat];
        R[I.Dst].D = I.Code == Op::AddLoadD   ? L + Rv
                     : I.Code == Op::SubLoadD ? L - Rv
                     : I.Code == Op::MulLoadD ? L * Rv
                                              : L / Rv;
        ++Ops;
        if constexpr (Cost)
          Cyc += I.K;
        break;
      }
      case Op::LoadI:
      case Op::LoadD: {
        const Access &Ac = Accesses[static_cast<size_t>(I.Aux)];
        int64_t Flat;
        if (!Index(Ac, Flat))
          return Done();
        ++Reads;
        if constexpr (Cost)
          Memory(Ac, Flat, /*IsWrite=*/false);
        if (I.Code == Op::LoadD)
          R[I.Dst].D = Ac.D[Flat];
        else
          R[I.Dst].I = Ac.I[Flat];
        break;
      }
      case Op::CheckIndex: {
        const Access &Ac = Accesses[static_cast<size_t>(I.Aux)];
        int64_t Idx = R[I.A].I;
        uint32_t Dim = static_cast<uint32_t>(I.B);
        if (Idx < 0 || Idx >= DimsP[Ac.DimBegin + Dim].Extent) {
          outOfBounds(Ac, Dim, Idx);
          return Done();
        }
        break;
      }
      case Op::IndexFlat: {
        int64_t Flat;
        if (!Index(Accesses[static_cast<size_t>(I.Aux)], Flat))
          return Done();
        R[I.Dst].I = Flat;
        break;
      }
      case Op::StoreD:
      case Op::StoreI: {
        const Access &Ac = Accesses[static_cast<size_t>(I.Aux)];
        int64_t Flat = R[I.A].I;
        auto AOp = static_cast<AssignOp>(I.Dst);
        bool Double = I.Code == Op::StoreD;
        if (AOp != AssignOp::Set) {
          ++Reads;
          if constexpr (Cost)
            Memory(Ac, Flat, /*IsWrite=*/false);
          if (Double)
            ++Ops;
          if constexpr (Cost)
            Cyc += I.K;
        }
        if (Double)
          applyAssign(Ac.D[Flat], AOp, R[I.B].D);
        else
          applyAssign(Ac.I[Flat], AOp, R[I.B].I);
        ++Writes;
        if constexpr (Cost)
          Memory(Ac, Flat, /*IsWrite=*/true);
        break;
      }
      case Op::Jump:
        PC = Base + I.Aux;
        break;
      case Op::JumpIfZero:
        if (R[I.A].I == 0)
          PC = Base + I.Aux;
        break;
      case Op::AndJump:
        if (R[I.A].I == 0) {
          R[I.Dst].I = 0;
          PC = Base + I.Aux;
        }
        break;
      case Op::OrJump:
        if (R[I.A].I != 0) {
          R[I.Dst].I = 1;
          PC = Base + I.Aux;
        }
        break;
      case Op::LoopEnter:
      case Op::ParEnter: {
        const Loop &L = Loops[static_cast<size_t>(I.Aux)];
        bool Parallel = I.Code == Op::ParEnter;
        int64_t Lo = R[I.A].I, Hi = R[I.B].I;
        R[L.Hi].I = Hi;
        if (Parallel) {
          ParStart = Cyc;
          IterCosts.clear();
        }
        if (!(Lo < Hi)) {
          if (Parallel)
            FinishParallel(L);
          PC = Base + L.Exit;
          break;
        }
        R[L.Ctr].I = Lo;
        if (!L.Reduced.empty()) {
          uint64_t Span = static_cast<uint64_t>(Hi) - static_cast<uint64_t>(Lo);
          uint64_t Step = static_cast<uint64_t>(L.Step);
          enterReduced(L, R, Lo,
                       static_cast<int64_t>(static_cast<uint64_t>(Lo) +
                                            (Span - 1) / Step * Step));
        }
        if (!Begin(L, Lo, Parallel))
          return Done();
        break;
      }
      case Op::LoopNext:
      case Op::ParNext: {
        const Loop &L = Loops[static_cast<size_t>(I.Aux)];
        bool Parallel = I.Code == Op::ParNext;
        if (Parallel)
          IterCosts.push_back(Cyc - IterMark);
        int64_t V = R[L.Ctr].I + L.Step;
        if (V < R[L.Hi].I) {
          R[L.Ctr].I = V;
          if (!Begin(L, V, Parallel))
            return Done();
          PC = Base + L.Body;
        } else if (Parallel) {
          FinishParallel(L);
        }
        break;
      }
      case Op::Fail:
        runtimeFail(Messages[static_cast<size_t>(I.Aux)]);
        return Done();
      case Op::Halt:
        return Done();
      }
    }
  }

  template <typename T> static void applyAssign(T &Elem, AssignOp Op, T V) {
    switch (Op) {
    case AssignOp::Set:
      Elem = V;
      break;
    case AssignOp::Add:
      Elem += V;
      break;
    case AssignOp::Sub:
      Elem -= V;
      break;
    case AssignOp::Mul:
      Elem *= V;
      break;
    }
  }

  RunResult run() {
    // Reset state.
    DataD = InitDouble;
    DataI = InitInt;
    Regs = InitRegs;
    for (size_t S = 0; S < SlotTypes.size(); ++S) {
      if (SlotTypes[S] == ElemType::Double)
        Regs[S].D = InitScalarD[S];
      else
        Regs[S].I = InitScalarI[S];
    }
    for (Access &Ac : Accesses) {
      Ac.D = DataD[static_cast<size_t>(Ac.Array)].data();
      Ac.I = DataI[static_cast<size_t>(Ac.Array)].data();
    }
    Failed = false;
    RunError.clear();
    Cache = Opts.CountCost ? &machine::CacheSim::forThread(Opts.Machine)
                           : nullptr;
    if (Cache)
      exec<true>();
    else
      exec<false>();

    RunResult R;
    R.Ok = !Failed;
    R.Error = RunError;
    R.Cycles = Cycles;
    R.ArithOps = ArithOps;
    R.MemReads = MemReads;
    R.MemWrites = MemWrites;
    R.LoopIterations = Iterations;
    if (Cache)
      R.Cache = Cache->stats();
    Cache = nullptr;
    double Sum = 0;
    for (const auto &V : DataD)
      for (double X : V)
        Sum += X;
    for (const auto &V : DataI)
      for (int64_t X : V)
        Sum += static_cast<double>(X);
    R.Checksum = Sum;
    R.Warnings = Warnings;
    return R;
  }
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

ProgramEvaluator::ProgramEvaluator(const cir::Program &P, EvalOptions Opts)
    : Prog(P), Opts(std::move(Opts)) {}

ProgramEvaluator::~ProgramEvaluator() = default;

Status ProgramEvaluator::prepare() {
  Compiled = std::make_unique<detail::CompiledProgram>();
  Compiled->Opts = Opts;
  return Compiled->compile(Prog);
}

Status ProgramEvaluator::setDoubleArray(const std::string &Name,
                                        std::vector<double> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitDouble[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setIntArray(const std::string &Name,
                                     std::vector<int64_t> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitInt[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setScalar(const std::string &Name, double Value) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ScalarSlots.find(Name);
  if (It == Compiled->ScalarSlots.end())
    return Status::error("unknown scalar: " + Name);
  size_t Slot = static_cast<size_t>(It->second);
  if (Compiled->SlotTypes[Slot] == cir::ElemType::Double)
    Compiled->InitScalarD[Slot] = Value;
  else
    Compiled->InitScalarI[Slot] = static_cast<int64_t>(Value);
  return Status::success();
}

RunResult ProgramEvaluator::run() {
  assert(Compiled && "prepare() must run first");
  return Compiled->run();
}

Expected<std::vector<double>>
ProgramEvaluator::doubleArray(const std::string &Name) const {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Expected<std::vector<double>>::error("unknown array: " + Name);
  size_t Id = static_cast<size_t>(It->second);
  if (Id >= Compiled->DataD.size() || Compiled->DataD[Id].empty())
    return Expected<std::vector<double>>::error(Name + " is not a double array");
  return Compiled->DataD[Id];
}

RunResult evaluateProgram(const cir::Program &P, const EvalOptions &Opts) {
  ProgramEvaluator Eval(P, Opts);
  Status S = Eval.prepare();
  if (!S.ok()) {
    RunResult R;
    R.Error = S.message();
    return R;
  }
  return Eval.run();
}

} // namespace eval
} // namespace locus
