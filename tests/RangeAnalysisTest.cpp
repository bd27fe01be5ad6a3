//===- RangeAnalysisTest.cpp - Symbolic range analysis tests -------------===//
///
/// \file
/// Unit tests for the saturating interval lattice (INT64 extremes, empty
/// intervals, widening) and end-to-end tests for its consumers: the static
/// bounds verifier over the shipped kernel corpus, the seeded off-by-one
/// tile-bound mutation it must catch with a located witness, and trip-count
/// refinement in region discovery.
///
//===----------------------------------------------------------------------===//

#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <climits>

namespace locus {
namespace analysis {
namespace {

//===----------------------------------------------------------------------===//
// Saturating scalar arithmetic at the INT64 extremes
//===----------------------------------------------------------------------===//

TEST(SatArith, AddSaturatesAtBothExtremes) {
  EXPECT_EQ(satAdd(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(satAdd(1, INT64_MAX), INT64_MAX);
  EXPECT_EQ(satAdd(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(satAdd(INT64_MAX - 1, 1), INT64_MAX); // clamp, not sentinel pass
  EXPECT_EQ(satAdd(3, 4), 7);
  // -inf dominates +inf: the sum of opposite sentinels stays bottom-heavy
  // (a lower bound may only move down, an upper bound only up).
  EXPECT_EQ(satAdd(INT64_MIN, INT64_MAX), INT64_MIN);
}

TEST(SatArith, NegMapsSentinelsToEachOther) {
  EXPECT_EQ(satNeg(INT64_MIN), INT64_MAX);
  EXPECT_EQ(satNeg(INT64_MAX), INT64_MIN);
  EXPECT_EQ(satNeg(-7), 7);
}

TEST(SatArith, SubHandlesExtremes) {
  EXPECT_EQ(satSub(INT64_MIN, 1), INT64_MIN);
  EXPECT_EQ(satSub(INT64_MAX, -1), INT64_MAX);
  EXPECT_EQ(satSub(0, INT64_MIN), INT64_MAX);
  EXPECT_EQ(satSub(10, 3), 7);
}

TEST(SatArith, MulZeroAbsorbsEvenSentinels) {
  EXPECT_EQ(satMul(0, INT64_MAX), 0);
  EXPECT_EQ(satMul(INT64_MIN, 0), 0);
  EXPECT_EQ(satMul(INT64_MAX, -2), INT64_MIN);
  EXPECT_EQ(satMul(INT64_MIN, -2), INT64_MAX);
  EXPECT_EQ(satMul(int64_t(1) << 40, int64_t(1) << 40), INT64_MAX);
  EXPECT_EQ(satMul(-(int64_t(1) << 40), int64_t(1) << 40), INT64_MIN);
  EXPECT_EQ(satMul(-3, 4), -12);
}

//===----------------------------------------------------------------------===//
// Interval lattice
//===----------------------------------------------------------------------===//

TEST(Interval, MakeNormalizesInvertedToEmpty) {
  EXPECT_TRUE(Interval::make(3, 2).Empty);
  EXPECT_FALSE(Interval::make(2, 2).Empty);
  EXPECT_EQ(Interval::point(5), Interval::make(5, 5));
}

TEST(Interval, EmptyIsContainedInEverything) {
  Interval E = Interval::none();
  EXPECT_TRUE(Interval::point(0).contains(E));
  EXPECT_TRUE(Interval::full().contains(E));
  EXPECT_FALSE(E.contains(Interval::point(0))); // the empty set holds nothing
  EXPECT_FALSE(E.containsValue(0));
}

TEST(Interval, ContainmentAndMembership) {
  Interval I = Interval::make(-3, 9);
  EXPECT_TRUE(I.containsValue(-3));
  EXPECT_TRUE(I.containsValue(9));
  EXPECT_FALSE(I.containsValue(10));
  EXPECT_TRUE(Interval::full().contains(I));
  EXPECT_FALSE(I.contains(Interval::full()));
  EXPECT_TRUE(I.contains(Interval::make(0, 9)));
  EXPECT_FALSE(I.contains(Interval::make(0, 10)));
}

TEST(Interval, JoinAndMeet) {
  EXPECT_EQ(join(Interval::make(0, 5), Interval::make(10, 20)),
            Interval::make(0, 20));
  EXPECT_EQ(join(Interval::none(), Interval::make(1, 2)),
            Interval::make(1, 2));
  EXPECT_EQ(meet(Interval::make(0, 5), Interval::make(3, 9)),
            Interval::make(3, 5));
  EXPECT_TRUE(meet(Interval::make(0, 5), Interval::make(6, 9)).Empty);
  EXPECT_TRUE(meet(Interval::none(), Interval::full()).Empty);
}

TEST(Interval, WidenJumpsMovedEndpointsToInfinity) {
  Interval Old = Interval::make(0, 5);
  EXPECT_EQ(widen(Old, Interval::make(0, 6)),
            Interval::make(0, INT64_MAX));
  EXPECT_EQ(widen(Old, Interval::make(-1, 5)),
            Interval::make(INT64_MIN, 5));
  // Stable when the new interval does not grow: widening terminates.
  EXPECT_EQ(widen(Old, Interval::make(1, 4)), Old);
  EXPECT_EQ(widen(Old, Old), Old);
}

TEST(Interval, RangeArithmetic) {
  EXPECT_EQ(rangeAdd(Interval::make(1, 2), Interval::make(10, 20)),
            Interval::make(11, 22));
  EXPECT_EQ(rangeSub(Interval::make(0, 5), Interval::make(1, 3)),
            Interval::make(-3, 4));
  EXPECT_EQ(rangeMul(Interval::make(-2, 3), Interval::make(4, 5)),
            Interval::make(-10, 15));
  EXPECT_EQ(rangeNeg(Interval::make(-2, 7)), Interval::make(-7, 2));
  EXPECT_TRUE(rangeAdd(Interval::none(), Interval::full()).Empty);
  // Saturated endpoints survive arithmetic without wrapping.
  EXPECT_EQ(rangeAdd(Interval::make(0, INT64_MAX), Interval::point(1)),
            Interval::make(1, INT64_MAX));
}

TEST(Interval, RangeDivAndMod) {
  EXPECT_EQ(rangeDiv(Interval::make(10, 21), Interval::point(2)),
            Interval::make(5, 10));
  // A zero-spanning divisor defeats the corner argument.
  EXPECT_TRUE(rangeDiv(Interval::make(10, 20), Interval::make(-1, 1)).isFull());
  EXPECT_EQ(rangeMod(Interval::make(0, 100), Interval::point(8)),
            Interval::make(0, 7));
  EXPECT_EQ(rangeMod(Interval::make(-5, 100), Interval::point(8)),
            Interval::make(-7, 7));
}

TEST(Interval, StrRendersSentinelsAndEmpty) {
  EXPECT_EQ(Interval::make(0, 5).str(), "[0, 5]");
  EXPECT_EQ(Interval::full().str(), "[-inf, +inf]");
  EXPECT_EQ(Interval::make(3, INT64_MAX).str(), "[3, +inf]");
  EXPECT_EQ(Interval::none().str(), "[]");
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

/// `X + ((Y - X) / F) * F`, the remainder start Unroll emits.
cir::ExprPtr alignedStep(cir::ExprPtr X1, cir::ExprPtr Y, cir::ExprPtr X2,
                         int64_t F) {
  using cir::BinOp;
  using cir::makeBin;
  return makeBin(
      BinOp::Add, std::move(X1),
      makeBin(BinOp::Mul,
              makeBin(BinOp::Div, makeBin(BinOp::Sub, std::move(Y),
                                          std::move(X2)),
                      cir::makeInt(F)),
              cir::makeInt(F)));
}

TEST(EvalRange, UnrollRemainderStartStaysBetweenItsEnds) {
  RangeEnv Env{{"x", Interval::make(0, 8)}, {"y", Interval::make(4, 16)}};
  cir::ExprPtr E =
      alignedStep(cir::makeVar("x"), cir::makeVar("y"), cir::makeVar("x"), 4);
  EXPECT_EQ(evalRange(*E, Env), Interval::make(0, 16));
  // A compound X matches structurally.
  auto XPlus1 = [] {
    return cir::makeBin(cir::BinOp::Add, cir::makeVar("x"), cir::makeInt(1));
  };
  cir::ExprPtr C = alignedStep(XPlus1(), cir::makeVar("y"), XPlus1(), 4);
  EXPECT_EQ(evalRange(*C, Env), Interval::make(1, 16));
}

TEST(EvalRange, DifferentStartsKeepThePlainInterval) {
  RangeEnv Env{{"x", Interval::make(0, 8)},
               {"z", Interval::make(0, 8)},
               {"y", Interval::make(4, 16)}};
  // x + ((y - z) / 4) * 4: the rule does not apply, plain arithmetic does.
  cir::ExprPtr E =
      alignedStep(cir::makeVar("x"), cir::makeVar("y"), cir::makeVar("z"), 4);
  EXPECT_EQ(evalRange(*E, Env), Interval::make(-4, 24));
}

//===----------------------------------------------------------------------===//
// Bounds verification over programs
//===----------------------------------------------------------------------===//

std::unique_ptr<cir::Program> parseOrDie(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

TEST(BoundsCheck, ConstantNestProvesClean) {
  auto P = parseOrDie(R"(
double A[8][8];
int main() {
  int i, j;
  for (i = 0; i < 8; i++)
    for (j = 0; j < 8; j++)
      A[i][j] = A[i][j] + 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  EXPECT_EQ(R.SubscriptsChecked, 4);
  EXPECT_EQ(R.Proven, 4);
  EXPECT_TRUE(R.clean());
}

TEST(BoundsCheck, InclusiveBoundIsALocatedViolation) {
  auto P = parseOrDie(R"(
double A[8];
int main() {
  int i;
  for (i = 0; i <= 8; i++)
    A[i] = 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  ASSERT_EQ(R.Findings.size(), 1u);
  const SubscriptFinding &F = R.Findings[0];
  EXPECT_EQ(F.K, SubscriptFinding::Kind::Violation);
  EXPECT_FALSE(F.Definite); // most iterations are in bounds
  EXPECT_EQ(F.Array, "A");
  EXPECT_EQ(F.Range, Interval::make(0, 8));
  EXPECT_EQ(F.LoopVar, "i");
  EXPECT_TRUE(F.Loc.valid());
  EXPECT_NE(F.render().find("ranges over [0, 8]"), std::string::npos);
  EXPECT_NE(F.render().find("extent 8"), std::string::npos);
}

TEST(BoundsCheck, ConstantIndexPastExtentIsDefinite) {
  auto P = parseOrDie(R"(
double A[8];
int main() {
  A[8] = 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].K, SubscriptFinding::Kind::Violation);
  EXPECT_TRUE(R.Findings[0].Definite);
}

TEST(BoundsCheck, SymbolicBoundIsUnprovenAndTerminates) {
  // The bound is a free scalar: the index interval saturates, the verdict
  // is honest ("unproven", not "violation"), and the loop-carried scalar
  // accumulation forces the fixpoint through its widening path.
  auto P = parseOrDie(R"(
double A[8];
int main() {
  int i, n, s;
  s = 0;
  for (i = 0; i < n; i++) {
    s = s + 1;
    A[i] = A[i] + 1.0;
  }
}
)");
  BoundsReport R = checkBounds(*P);
  EXPECT_EQ(R.violations(), 0);
  EXPECT_GT(R.unproven(), 0);
  for (const SubscriptFinding &F : R.Findings) {
    EXPECT_EQ(F.K, SubscriptFinding::Kind::Unproven);
    EXPECT_FALSE(F.Definite);
  }
}

TEST(BoundsCheck, LocalConstBoundRefinesToAProof) {
  // Same loop, but the bound is a locally-initialized scalar: the
  // environment carries n = [40, 40] and the subscripts prove.
  auto P = parseOrDie(R"(
double A[40];
int main() {
  int i;
  int n = 40;
  for (i = 0; i < n; i++)
    A[i] = A[i] + 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  EXPECT_TRUE(R.clean()) << R.render();
  EXPECT_EQ(R.Proven, 2);
}

TEST(BoundsCheck, NegativeStepLowerBoundIsUnprovenNotProven) {
  // Decreasing induction variable: the analysis only knows i <= init, so
  // the lower endpoint saturates — the access must not be claimed proven.
  auto P = parseOrDie(R"(
double A[100];
int main() {
  int i;
  for (i = 7; i < 100; i += -1)
    A[i] = 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].K, SubscriptFinding::Kind::Unproven);
  EXPECT_EQ(R.Findings[0].Range.Hi, 7);
  EXPECT_EQ(R.Findings[0].Range.Lo, INT64_MIN);
}

TEST(BoundsCheck, ProvablyEmptyLoopBodyIsProven) {
  // The loop cannot execute, so even an absurd subscript is safe.
  auto P = parseOrDie(R"(
double A[8];
int main() {
  int i;
  for (i = 5; i < 5; i++)
    A[i + 1000] = 1.0;
}
)");
  BoundsReport R = checkBounds(*P);
  EXPECT_TRUE(R.clean()) << R.render();
}

TEST(BoundsCheck, TriangularDependentBoundProves) {
  // trmm's shape: the inner bound is the outer induction variable. Interval
  // propagation resolves k < i against i in [1, N-1].
  auto P = parseOrDie(workloads::polybenchSource("trmm", 16));
  BoundsReport R = checkBounds(*P);
  EXPECT_TRUE(R.clean()) << R.render();
}

TEST(BoundsCheck, BranchesJoinConservatively) {
  auto P = parseOrDie(R"(
double A[8];
int main() {
  int i, k;
  k = 0;
  for (i = 0; i < 8; i++) {
    if (i < 4) {
      k = i + 4;
    } else {
      k = i - 4;
    }
    A[k] = 1.0;
  }
}
)");
  BoundsReport R = checkBounds(*P);
  // k joins to [-4, 11]: a genuine may-violation with finite endpoints.
  ASSERT_EQ(R.Findings.size(), 1u);
  EXPECT_EQ(R.Findings[0].K, SubscriptFinding::Kind::Violation);
  EXPECT_EQ(R.Findings[0].Range, Interval::make(-4, 11));
  EXPECT_FALSE(R.Findings[0].Definite);
}

//===----------------------------------------------------------------------===//
// Kernel corpus: everything shipped proves in bounds
//===----------------------------------------------------------------------===//

TEST(BoundsCheck, AllPolybenchKernelsProveInBounds) {
  for (const std::string &Name : workloads::polybenchKernels()) {
    auto P = parseOrDie(workloads::polybenchSource(Name, 24));
    BoundsReport R = checkBounds(*P);
    EXPECT_TRUE(R.clean()) << Name << ":\n" << R.render();
    EXPECT_GT(R.Proven, 0) << Name;
  }
}

TEST(BoundsCheck, DgemmAndStencilWorkloadsProveInBounds) {
  std::vector<std::string> Sources = {workloads::dgemmSource(16, 16, 16)};
  for (workloads::StencilKind K :
       {workloads::StencilKind::Jacobi2D, workloads::StencilKind::Seidel2D,
        workloads::StencilKind::Heat1D})
    Sources.push_back(workloads::stencilSource(K, 4, 24));
  for (const std::string &Src : Sources) {
    auto P = parseOrDie(Src);
    BoundsReport R = checkBounds(*P);
    EXPECT_TRUE(R.clean()) << R.render();
  }
}

/// Satellite: the seeded off-by-one tile-bound mutation. A hand-tiled dgemm
/// whose intra-tile loop runs one iteration past the tile edge must be
/// rejected with a located witness naming the access and its interval.
TEST(BoundsCheck, SeededTileBoundMutationIsCaught) {
  auto P = parseOrDie(R"(
#define N 16
double A[N][N];
double B[N][N];
double C[N][N];
int main() {
  int it, i, j, k;
#pragma @Locus loop=matmul
  for (it = 0; it < N; it += 4)
    for (i = it; i <= it + 4; i++)
      for (j = 0; j < N; j++)
        for (k = 0; k < N; k++)
          C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
)");
  BoundsReport R = checkBounds(*P);
  EXPECT_GT(R.violations(), 0) << R.render();
  bool Witnessed = false;
  for (const SubscriptFinding &F : R.Findings) {
    if (F.Dim != 0 || F.K != SubscriptFinding::Kind::Violation)
      continue;
    // The tile loop is stride-refined to it in [0, 12], so i runs to
    // it+4 inclusive: [0, 16] against extent 16 — one past the edge.
    EXPECT_EQ(F.Range, Interval::make(0, 16));
    EXPECT_EQ(F.LoopVar, "i");
    EXPECT_EQ(F.Region, "matmul");
    EXPECT_TRUE(F.Loc.valid());
    EXPECT_NE(F.render().find("ranges over [0, 16]"), std::string::npos);
    Witnessed = true;
  }
  EXPECT_TRUE(Witnessed);
  // The corrected bound proves clean again.
  auto Fixed = parseOrDie(R"(
#define N 16
double A[N][N];
double B[N][N];
double C[N][N];
int main() {
  int it, i, j, k;
  for (it = 0; it < N; it += 4)
    for (i = it; i < it + 4; i++)
      for (j = 0; j < N; j++)
        for (k = 0; k < N; k++)
          C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
)");
  EXPECT_TRUE(checkBounds(*Fixed).clean());
}

//===----------------------------------------------------------------------===//
// Consumer helpers: loop ranges, block environments, iteration boxes
//===----------------------------------------------------------------------===//

TEST(RangeEnv, EnvAtBlockAndIterationBox) {
  auto P = parseOrDie(R"(
double A[32][32];
int main() {
  int i, j;
  int n = 32;
#pragma @Locus loop=scop
  for (i = 0; i < n; i++)
    for (j = 0; j < 32; j++)
      A[i][j] = A[i][j] + 1.0;
}
)");
  std::vector<cir::Block *> Regions = P->findRegions("scop");
  ASSERT_EQ(Regions.size(), 1u);
  RangeEnv Base = envAtBlock(*P, Regions[0]);
  ASSERT_TRUE(Base.count("n"));
  EXPECT_EQ(Base.at("n"), Interval::point(32));
  std::map<std::string, Interval> Box = iterationBox(*Regions[0], Base);
  ASSERT_TRUE(Box.count("i"));
  ASSERT_TRUE(Box.count("j"));
  EXPECT_EQ(Box["i"], Interval::make(0, 31));
  EXPECT_EQ(Box["j"], Interval::make(0, 31));
}

TEST(RangeEnv, LoopBoundRangesCoverEveryLoop) {
  auto P = parseOrDie(workloads::polybenchSource("trmm", 16));
  auto Ranges = loopBoundRanges(*P);
  EXPECT_EQ(Ranges.size(), 3u);
  for (const auto &[For, LR] : Ranges) {
    EXPECT_FALSE(LR.Init.Empty) << For->Var;
    EXPECT_FALSE(LR.Limit.Empty) << For->Var;
  }
}

//===----------------------------------------------------------------------===//
// Consumer: trip-count refinement in region discovery
//===----------------------------------------------------------------------===//

TEST(TripRefinement, SingletonScalarBoundGivesExactTrips) {
  auto P = parseOrDie(R"(
double A[40][40];
int main() {
  int i, j;
  int n = 40;
  for (i = 0; i < n; i++)
    for (j = 0; j < n; j++)
      A[i][j] = A[i][j] + 1.0;
}
)");
  DiscoveryReport R = discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  EXPECT_EQ(R.Candidates[0].TripProduct, 1600u);
  EXPECT_TRUE(R.Candidates[0].TripExact);
}

TEST(TripRefinement, UnboundedSymbolicBoundKeepsTheFallback) {
  auto P = parseOrDie(R"(
double A[64][64];
int main() {
  int i, j, n;
  for (i = 0; i < n; i++)
    for (j = 0; j < 64; j++)
      A[i][j] = A[i][j] + 1.0;
}
)");
  DiscoveryOptions Opts;
  Opts.SymbolicTrip = 64;
  DiscoveryReport R = discoverRegions(*P, Opts);
  ASSERT_EQ(R.Candidates.size(), 1u);
  EXPECT_EQ(R.Candidates[0].TripProduct, 64u * 64u);
  EXPECT_FALSE(R.Candidates[0].TripExact);
}

TEST(TripRefinement, TriangularBoundGivesABoundedEstimate) {
  auto P = parseOrDie(workloads::polybenchSource("trmm", 16));
  DiscoveryReport R = discoverRegions(*P);
  ASSERT_GE(R.Candidates.size(), 1u);
  const NestCandidate &C = R.Candidates[0];
  // k < i resolves to at most 15 iterations — refined below the default
  // 64-per-level fallback, but honestly inexact.
  EXPECT_LE(C.TripProduct, 15u * 16u * 15u);
  EXPECT_GT(C.TripProduct, 0u);
  EXPECT_FALSE(C.TripExact);
}

} // namespace
} // namespace analysis
} // namespace locus
