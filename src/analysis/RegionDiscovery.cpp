//===- RegionDiscovery.cpp - Pragma-free region discovery -----------------===//

#include "src/analysis/RegionDiscovery.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/analysis/RangeAnalysis.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

namespace locus {
namespace analysis {

using cir::ArrayRef;
using cir::Block;
using cir::CallExpr;
using cir::CallStmt;
using cir::DeclStmt;
using cir::Expr;
using cir::ForStmt;
using cir::IfStmt;
using cir::Program;
using cir::Stmt;
using cir::StmtPtr;

const char *candidateVerdictName(CandidateVerdict V) {
  switch (V) {
  case CandidateVerdict::Selected:
    return "selected";
  case CandidateVerdict::Demoted:
    return "demoted";
  case CandidateVerdict::Rejected:
    return "rejected";
  }
  return "?";
}

namespace {

/// Calls the evaluator treats as pure intrinsics; safe inside a region.
bool isIntrinsicCall(const std::string &Callee) {
  return Callee == "min" || Callee == "max";
}

//===----------------------------------------------------------------------===//
// Expression traversal: every subexpression, not only the top-level ones
// cir::forEachExpr visits.
//===----------------------------------------------------------------------===//

void visitExpr(const Expr &E, const std::function<void(const Expr &)> &Fn) {
  Fn(E);
  switch (E.kind()) {
  case cir::ExprKind::ArrayRef:
    for (const auto &I : cast<ArrayRef>(&E)->Indices)
      visitExpr(*I, Fn);
    break;
  case cir::ExprKind::Binary: {
    const auto *B = cast<cir::BinaryExpr>(&E);
    visitExpr(*B->Lhs, Fn);
    visitExpr(*B->Rhs, Fn);
    break;
  }
  case cir::ExprKind::Unary:
    visitExpr(*cast<cir::UnaryExpr>(&E)->Operand, Fn);
    break;
  case cir::ExprKind::Call:
    for (const auto &A : cast<CallExpr>(&E)->Args)
      visitExpr(*A, Fn);
    break;
  default:
    break;
  }
}

/// Visits every expression in the subtree, including loop bounds and
/// if conditions.
void visitAllExprs(const Stmt &S, const std::function<void(const Expr &)> &Fn) {
  cir::forEachExpr(S, [&](const cir::ExprPtr &E) { visitExpr(*E, Fn); });
}

//===----------------------------------------------------------------------===//
// Scan: outermost loops, in source order
//===----------------------------------------------------------------------===//

/// One outer loop found by the scan, plus how we got there.
struct ScanHit {
  const ForStmt *Root = nullptr;
};

/// Walks \p B in source order collecting outermost loops. Descends through
/// plain blocks and both branches of if statements, never into loop bodies,
/// and never into blocks that already carry a region name (those are
/// reported through \p OnRegion).
void scanBlock(const Block &B, std::vector<ScanHit> &Hits,
               const std::function<void(const Block &)> &OnRegion) {
  for (const StmtPtr &S : B.Stmts) {
    if (const auto *For = cir::dyn_cast<ForStmt>(S.get())) {
      Hits.push_back(ScanHit{For});
    } else if (const auto *Blk = cir::dyn_cast<Block>(S.get())) {
      if (!Blk->RegionName.empty())
        OnRegion(*Blk);
      else
        scanBlock(*Blk, Hits, OnRegion);
    } else if (const auto *If = cir::dyn_cast<IfStmt>(S.get())) {
      scanBlock(*If->Then, Hits, OnRegion);
      if (If->Else)
        scanBlock(*If->Else, Hits, OnRegion);
    }
  }
}

/// Mutable mirror of scanBlock: the owning slot of every outermost loop, in
/// the identical order (so ScanIndex matches between scan and annotate).
void scanSlots(Block &B, std::vector<StmtPtr *> &Slots) {
  for (StmtPtr &S : B.Stmts) {
    if (cir::isa<ForStmt>(S.get())) {
      Slots.push_back(&S);
    } else if (auto *Blk = cir::dyn_cast<Block>(S.get())) {
      if (Blk->RegionName.empty())
        scanSlots(*Blk, Slots);
    } else if (auto *If = cir::dyn_cast<IfStmt>(S.get())) {
      scanSlots(*If->Then, Slots);
      if (If->Else)
        scanSlots(*If->Else, Slots);
    }
  }
}

//===----------------------------------------------------------------------===//
// Triage
//===----------------------------------------------------------------------===//

/// First side-effecting construct in the nest, if any: a call statement or a
/// call expression that is not a pure intrinsic.
std::optional<support::Diag> findSideEffect(const ForStmt &Root) {
  std::optional<support::Diag> Found;
  visitAllExprs(Root, [&](const Expr &E) {
    if (Found)
      return;
    if (const auto *Call = cir::dyn_cast<CallExpr>(&E)) {
      if (!isIntrinsicCall(Call->Callee)) {
        support::Diag D;
        D.Sev = support::DiagSeverity::Warning;
        D.Loc = E.Loc.valid() ? E.Loc : Root.Loc;
        D.Message =
            "call `" + Call->Callee + "` has unknown effects; not a region";
        Found = D;
      }
    }
  });
  return Found;
}

/// Whether \p E is acceptable as a loop bound for triage: affine, or a pure
/// min/max intrinsic over acceptable bounds. Tiled variants carry
/// `min(N, ii + tile)` bounds everywhere; intrinsics must not reject a nest
/// (dependence analysis still demotes it with its own located reason).
bool triageBoundOk(const Expr &E) {
  if (toAffine(E))
    return true;
  const auto *Call = cir::dyn_cast<CallExpr>(&E);
  if (!Call || !isIntrinsicCall(Call->Callee))
    return false;
  for (const auto &A : Call->Args)
    if (!triageBoundOk(*A))
      return false;
  return true;
}

/// First loop in the nest with a bound the affine machinery cannot handle,
/// if any: non-affine init/bound expression or a non-positive step.
std::optional<support::Diag> findBadBound(const ForStmt &Root) {
  std::optional<support::Diag> Found;
  cir::forEachStmt(Root, [&](const Stmt &S) {
    if (Found)
      return;
    const auto *For = cir::dyn_cast<ForStmt>(&S);
    if (!For)
      return;
    support::Diag D;
    D.Sev = support::DiagSeverity::Warning;
    D.Loc = For->Loc;
    if (For->Step <= 0) {
      D.Message = "loop `" + For->Var + "` has non-positive step " +
                  std::to_string(For->Step);
      Found = D;
    } else if (!triageBoundOk(*For->Init)) {
      D.Message = "loop `" + For->Var + "` lower bound `" +
                  cir::printExpr(*For->Init) + "` is non-affine";
      Found = D;
    } else if (!triageBoundOk(*For->Bound)) {
      D.Message = "loop `" + For->Var + "` bound `" +
                  cir::printExpr(*For->Bound) + "` is non-affine";
      Found = D;
    }
  });
  return Found;
}

struct TripInfo {
  uint64_t Product = 1;
  bool Exact = true;
};

/// Trip count of one loop, refined by the symbolic ranges of its bounds when
/// they are not plain constants: singleton intervals (e.g. a bound variable
/// with a single possible value, `int n = 40;`) give an EXACT trip; bounded
/// intervals give an upper-bound estimate (Exact stays false); only fully
/// unbounded symbolic bounds fall back to \p SymbolicTrip.
TripInfo loopTrip(const ForStmt &For,
                  const std::map<const ForStmt *, LoopRange> &Ranges,
                  uint64_t SymbolicTrip) {
  if (auto L = cir::constLoop(For))
    return TripInfo{static_cast<uint64_t>(L->Trips), true};
  TripInfo Fallback{SymbolicTrip, false};
  if (For.Step <= 0)
    return Fallback;
  auto It = Ranges.find(&For);
  if (It == Ranges.end())
    return Fallback;
  const Interval &Init = It->second.Init;
  const Interval &Limit = It->second.Limit; // exclusive upper limit
  if (Init.Empty || Limit.Empty)
    return TripInfo{0, true}; // provably never runs
  if (Init.Lo == INT64_MIN || Limit.Hi == INT64_MAX)
    return Fallback;
  std::optional<int64_t> Trips = cir::tripCount(Init.Lo, Limit.Hi, For.Step);
  if (!Trips)
    return Fallback;
  bool Exact = Init.Lo == Init.Hi && Limit.Lo == Limit.Hi;
  return TripInfo{static_cast<uint64_t>(*Trips), Exact};
}

/// Trip-count product along the deepest (maximum-product) chain of the nest
/// rooted at \p For. Loops with underivable symbolic bounds contribute
/// \p SymbolicTrip and clear Exact; see loopTrip().
TripInfo chainTrips(const ForStmt &For,
                    const std::map<const ForStmt *, LoopRange> &Ranges,
                    uint64_t SymbolicTrip) {
  TripInfo Self = loopTrip(For, Ranges, SymbolicTrip);
  std::vector<ScanHit> Children;
  scanBlock(*For.Body, Children, [](const Block &) {});
  TripInfo Best; // no children: multiply by 1, stay exact
  bool HasChild = false;
  for (const ScanHit &C : Children) {
    TripInfo CI = chainTrips(*C.Root, Ranges, SymbolicTrip);
    if (!HasChild || CI.Product > Best.Product) {
      Best = CI;
      HasChild = true;
    }
  }
  return TripInfo{Self.Product * Best.Product, Self.Exact && Best.Exact};
}

//===----------------------------------------------------------------------===//
// Footprint estimate
//===----------------------------------------------------------------------===//

/// Value range of an affine expression over a box of variable ranges.
/// Returns nullopt when the expression mentions a variable outside the box
/// or its range saturates.
std::optional<Interval> affineRange(const AffineExpr &E, const RangeEnv &Box) {
  Interval R = Interval::point(E.constant());
  for (const auto &[Name, Coeff] : E.coeffs()) {
    auto It = Box.find(Name);
    if (It == Box.end())
      return std::nullopt;
    R = rangeAdd(R, rangeMul(Interval::point(Coeff), It->second));
  }
  if (!R.bounded())
    return std::nullopt;
  return R;
}

/// Declared dimensions of array \p Name: a global or a body-local
/// declaration. Empty when not found.
std::vector<int64_t> declaredDims(const Program &P, const std::string &Name) {
  if (const DeclStmt *G = P.findGlobal(Name))
    return G->Dims;
  std::vector<int64_t> Dims;
  cir::forEachStmt(*P.Body, [&](const Stmt &S) {
    if (const auto *D = cir::dyn_cast<DeclStmt>(&S))
      if (D->Name == Name && !Dims.size())
        Dims = D->Dims;
  });
  return Dims;
}

/// Estimated distinct bytes the nest touches: per array, the product of
/// per-dimension subscript extents over the (fully concrete) iteration box.
/// Arrays with non-affine or out-of-box subscripts fall back to their
/// declared size; 0 when anything stays unknown.
uint64_t estimateFootprint(const Program &P, const ForStmt &Root) {
  // The iteration box [First, max(First, Limit - 1)]; bail out unless every
  // loop is concrete.
  RangeEnv Box;
  bool Concrete = true;
  cir::forEachStmt(Root, [&](const Stmt &S) {
    const auto *For = cir::dyn_cast<ForStmt>(&S);
    if (!For || !Concrete)
      return;
    std::optional<cir::ConstLoop> L = cir::constLoop(*For);
    if (!L) {
      Concrete = false;
      return;
    }
    Box[For->Var] =
        Interval::make(L->First, L->Trips ? L->Limit - 1 : L->First);
  });
  if (!Concrete)
    return 0;

  // Per array, per dimension, the widest extent seen across references.
  std::map<std::string, std::vector<uint64_t>> Extents;
  std::set<std::string> Fallback; // arrays needing declared-size fallback
  visitAllExprs(Root, [&](const Expr &E) {
    const auto *Ref = cir::dyn_cast<ArrayRef>(&E);
    if (!Ref)
      return;
    std::vector<uint64_t> RefExtents;
    for (const auto &Sub : Ref->Indices) {
      auto Aff = toAffine(*Sub);
      auto Range = Aff ? affineRange(*Aff, Box) : std::nullopt;
      if (!Range) {
        Fallback.insert(Ref->Name);
        return;
      }
      RefExtents.push_back(static_cast<uint64_t>(Range->Hi) -
                           static_cast<uint64_t>(Range->Lo) + 1);
    }
    auto &Slot = Extents[Ref->Name];
    Slot.resize(std::max(Slot.size(), RefExtents.size()), 1);
    for (size_t I = 0; I < RefExtents.size(); ++I)
      Slot[I] = std::max(Slot[I], RefExtents[I]);
  });

  constexpr uint64_t ElemBytes = 8;
  uint64_t Total = 0;
  for (const std::string &Name : Fallback) {
    std::vector<int64_t> Dims = declaredDims(P, Name);
    if (Dims.empty())
      return 0; // size genuinely unknown; no refinement
    uint64_t Bytes = ElemBytes;
    for (int64_t D : Dims)
      Bytes *= static_cast<uint64_t>(std::max<int64_t>(D, 1));
    Total += Bytes;
    Extents.erase(Name);
  }
  for (const auto &[Name, Dims] : Extents) {
    uint64_t Bytes = ElemBytes;
    for (uint64_t D : Dims)
      Bytes *= std::max<uint64_t>(D, 1);
    Total += Bytes;
  }
  return Total;
}

/// Latency (cycles) of the cache level the footprint fits in; memory
/// latency when it fits nowhere.
double footprintLatency(const machine::MachineConfig &M, uint64_t Bytes) {
  for (const machine::CacheLevelConfig &L : M.Levels)
    if (Bytes <= L.SizeBytes)
      return L.HitLatency;
  return M.MemLatency;
}

} // namespace

//===----------------------------------------------------------------------===//
// discoverRegions
//===----------------------------------------------------------------------===//

DiscoveryReport discoverRegions(const Program &P,
                                const DiscoveryOptions &Opts) {
  DiscoveryReport Report;

  std::vector<ScanHit> Hits;
  scanBlock(*P.Body, Hits, [&](const Block &Region) {
    std::vector<ScanHit> Inner;
    scanBlock(Region, Inner, [](const Block &) {});
    Report.NumAlreadyAnnotated += static_cast<int>(Inner.size());
    support::Diag D;
    D.Sev = support::DiagSeverity::Note;
    D.Loc = Region.Loc;
    D.Region = Region.RegionName;
    D.Message = "region `" + Region.RegionName +
                "` is already annotated; skipped by discovery";
    Report.Notes.push_back(D);
  });
  Report.NumScanned = static_cast<int>(Hits.size());

  if (Hits.empty()) {
    support::Diag D;
    D.Sev = support::DiagSeverity::Note;
    if (!P.Body->Stmts.empty())
      D.Loc = P.Body->Stmts.front()->Loc;
    D.Message = Report.NumAlreadyAnnotated > 0
                    ? "no unannotated loop nests; nothing to discover"
                    : "no loop nests found; nothing to discover";
    Report.Notes.push_back(D);
    return Report;
  }

  // Symbolic loop-bound ranges refine trip counts where evalConstInt fails
  // (e.g. `for (i = 0; i < n; ...)` with `int n = 40;` in scope).
  std::map<const ForStmt *, LoopRange> Ranges = loopBoundRanges(P);

  for (size_t I = 0; I < Hits.size(); ++I) {
    const ForStmt &Root = *Hits[I].Root;
    NestCandidate C;
    C.ScanIndex = static_cast<int>(I);
    C.Loc = Root.Loc;
    C.LoopVar = Root.Var;
    C.Depth = cir::loopNestDepth(Root);
    C.Perfect = cir::isPerfectNest(Root);

    // Stage 1: side-effect triage. A nest that calls out is not a region.
    if (auto Why = findSideEffect(Root)) {
      C.Verdict = CandidateVerdict::Rejected;
      C.Why = *Why;
      Report.Candidates.push_back(std::move(C));
      continue;
    }

    // Stage 2: bound triage. Non-affine bounds defeat every downstream
    // analysis (trip counts, dependence tests, legality queries).
    if (auto Why = findBadBound(Root)) {
      C.Verdict = CandidateVerdict::Rejected;
      C.Why = *Why;
      Report.Candidates.push_back(std::move(C));
      continue;
    }

    // Stage 3: hotness model. Depth x trip-count product, refined by the
    // machine-model latency of the footprint when bounds are concrete.
    TripInfo Trips = chainTrips(Root, Ranges, Opts.SymbolicTrip);
    C.TripProduct = Trips.Product;
    C.TripExact = Trips.Exact;
    C.FootprintBytes = estimateFootprint(P, Root);
    double Factor = 1.0;
    if (C.FootprintBytes > 0 && !Opts.Machine.Levels.empty()) {
      double Base = Opts.Machine.Levels.front().HitLatency;
      if (Base > 0)
        Factor = footprintLatency(Opts.Machine, C.FootprintBytes) / Base;
    }
    C.Hotness = static_cast<double>(C.Depth) *
                static_cast<double>(C.TripProduct) * Factor;

    // Stage 4: dependence triage. Unavailable dependences demote (the
    // generic program's dependence-guarded arms switch off) but the nest
    // stays annotatable and tunable.
    support::Diag Why;
    if (DependenceInfo::compute(Root, &Why)) {
      C.DepAvailable = true;
      C.Verdict = CandidateVerdict::Selected;
    } else {
      C.Verdict = CandidateVerdict::Demoted;
      if (Why.Message.empty()) {
        Why.Sev = support::DiagSeverity::Note;
        Why.Loc = Root.Loc;
        Why.Message = "dependence analysis unavailable";
      }
      C.Why = Why;
    }
    Report.Candidates.push_back(std::move(C));
  }

  // Rank: Selected by hotness, then Demoted by hotness, then Rejected in
  // source order; ties broken by scan order for determinism.
  auto Group = [](const NestCandidate &C) {
    switch (C.Verdict) {
    case CandidateVerdict::Selected:
      return 0;
    case CandidateVerdict::Demoted:
      return 1;
    case CandidateVerdict::Rejected:
      return 2;
    }
    return 3;
  };
  std::stable_sort(Report.Candidates.begin(), Report.Candidates.end(),
                   [&](const NestCandidate &A, const NestCandidate &B) {
                     if (Group(A) != Group(B))
                       return Group(A) < Group(B);
                     if (Group(A) == 2)
                       return A.ScanIndex < B.ScanIndex;
                     if (A.Hotness != B.Hotness)
                       return A.Hotness > B.Hotness;
                     return A.ScanIndex < B.ScanIndex;
                   });

  // Auto-assigned region labels: the prefix plus the rank index.
  constexpr const char *NamePrefix = "scop";
  int Rank = 0;
  for (NestCandidate &C : Report.Candidates)
    if (C.Verdict != CandidateVerdict::Rejected)
      C.Name = NamePrefix + std::to_string(Rank++);

  return Report;
}

std::vector<const NestCandidate *>
DiscoveryReport::annotatable(int TopN) const {
  std::vector<const NestCandidate *> Out;
  for (const NestCandidate &C : Candidates) {
    if (C.Verdict == CandidateVerdict::Rejected)
      continue;
    if (TopN > 0 && static_cast<int>(Out.size()) >= TopN)
      break;
    Out.push_back(&C);
  }
  return Out;
}

std::string DiscoveryReport::render() const {
  std::ostringstream OS;
  int Annotatable = 0, Rejected = 0;
  for (const NestCandidate &C : Candidates)
    (C.Verdict == CandidateVerdict::Rejected ? Rejected : Annotatable)++;
  OS << "discovery: scanned " << NumScanned << " outer loop nest(s): "
     << Annotatable << " annotatable, " << Rejected << " rejected";
  if (NumAlreadyAnnotated > 0)
    OS << ", " << NumAlreadyAnnotated << " already annotated";
  OS << "\n";
  int Rank = 0;
  for (const NestCandidate &C : Candidates) {
    ++Rank;
    OS << "  " << Rank << ". ";
    if (!C.Name.empty())
      OS << C.Name << " ";
    OS << "[" << candidateVerdictName(C.Verdict) << "] " << C.Loc.str()
       << ": for (" << C.LoopVar << ") depth=" << C.Depth
       << (C.Perfect ? " perfect" : " imperfect");
    if (C.Verdict != CandidateVerdict::Rejected) {
      OS << " trip=" << (C.TripExact ? "" : "~") << C.TripProduct;
      if (C.FootprintBytes > 0)
        OS << " footprint=" << C.FootprintBytes << "B";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.3g", C.Hotness);
      OS << " hotness=" << Buf;
    }
    OS << "\n";
    if (!C.Why.Message.empty())
      OS << "     reason: " << C.Why.Message << " (" << C.Why.Loc.str()
         << ")\n";
  }
  for (const support::Diag &N : Notes)
    OS << "  " << N.render() << "\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// annotateRegions
//===----------------------------------------------------------------------===//

Expected<int> annotateRegions(Program &P, const DiscoveryReport &Report,
                              int TopN) {
  std::vector<StmtPtr *> Slots;
  scanSlots(*P.Body, Slots);
  if (static_cast<int>(Slots.size()) != Report.NumScanned)
    return Expected<int>::error(
        "program shape does not match discovery report: expected " +
        std::to_string(Report.NumScanned) + " outer loops, found " +
        std::to_string(Slots.size()));

  int Injected = 0;
  for (const NestCandidate *C : Report.annotatable(TopN)) {
    if (C->Name.empty())
      return Expected<int>::error("candidate at " + C->Loc.str() +
                                  " has no region name");
    if (C->ScanIndex < 0 || C->ScanIndex >= static_cast<int>(Slots.size()))
      return Expected<int>::error("candidate scan index out of range");
    StmtPtr &Slot = *Slots[static_cast<size_t>(C->ScanIndex)];
    if (!cir::isa<ForStmt>(Slot.get()))
      return Expected<int>::error(
          "statement at scan index " + std::to_string(C->ScanIndex) +
          " is no longer a loop; re-run discovery");
    // Mirror the parser's handling of "#pragma @Locus loop=NAME": the loop
    // becomes the sole statement of a named block.
    auto Region = std::make_unique<Block>();
    Region->Loc = Slot->Loc;
    Region->RegionName = C->Name;
    Region->Stmts.push_back(std::move(Slot));
    Slot = std::move(Region);
    ++Injected;
  }
  return Injected;
}

//===----------------------------------------------------------------------===//
// Generic program + pragma stripping
//===----------------------------------------------------------------------===//

std::string genericLocusProgram(const std::string &RegionName) {
  return R"(
Search {
  buildcmd = "make clean; make LOOPEXTRACTED";
  runcmd = "LOOPEXTRACTED ../input 10";
}

CodeReg )" +
         RegionName + R"( {
  perfect = BuiltIn.IsPerfectLoopNest();
  depth = BuiltIn.LoopNestDepth();
  if (RoseLocus.IsDepAvailable()) {
    if (perfect && depth > 1) {
      permorder = permutation(seq(0, depth));
      RoseLocus.Interchange(order=permorder);
    }
    {
      if (perfect) {
        indexT1 = integer(1..depth);
        T1fac = poweroftwo(2..32);
        RoseLocus.Tiling(loop=indexT1, factor=T1fac);
      }
    } OR {
      if (depth > 1) {
        indexUAJ = integer(1..depth-1);
        UAJfac = poweroftwo(2..4);
        RoseLocus.UnrollAndJam(loop=indexUAJ, factor=UAJfac);
      }
    } OR {
      None; # No tiling, interchange, or unroll and jam.
    }
    innerloops = BuiltIn.ListInnerLoops();
    *RoseLocus.Distribute(loop=innerloops);
  }
  innerloops = BuiltIn.ListInnerLoops();
  RoseLocus.Unroll(loop=innerloops, factor=poweroftwo(2..8));
}
)";
}

std::string genericLocusProgram(const NestCandidate &C) {
  return genericLocusProgram(C.Name);
}

std::string stripLocusRegionPragmas(const std::string &Source) {
  std::ostringstream OS;
  std::istringstream IS(Source);
  std::string Line;
  while (std::getline(IS, Line)) {
    std::string_view Trimmed = trimString(Line);
    // Blank the line rather than deleting it: every other construct keeps
    // its source line, so located diagnostics (and the journal records that
    // embed them) stay bit-identical to the annotated original's.
    if (Trimmed.rfind("#pragma", 0) == 0 &&
        Trimmed.find("@Locus") != std::string_view::npos)
      Line.clear();
    OS << Line << "\n";
  }
  return OS.str();
}

} // namespace analysis
} // namespace locus
