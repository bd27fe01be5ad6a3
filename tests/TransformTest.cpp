//===- TransformTest.cpp - Transformation correctness tests -----------------===//
//
// Every transformation is validated semantically: the transformed program
// must compute the same arrays as the baseline (modulo floating-point
// reassociation). Structure checks confirm the expected loop shapes.
//
//===----------------------------------------------------------------------===//

#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/eval/Evaluator.h"
#include "src/transform/AltdescPragmas.h"
#include "src/transform/FusionDistribution.h"
#include "src/transform/GenericTiling.h"
#include "src/transform/Interchange.h"
#include "src/transform/LicmScalarRepl.h"
#include "src/transform/Tiling.h"
#include "src/transform/Unroll.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using namespace cir;
using namespace transform;

std::unique_ptr<Program> parseOrDie(const std::string &Src) {
  auto P = parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::vector<double> runArray(const Program &P, const std::string &Array) {
  eval::EvalOptions Opts;
  Opts.CountCost = false;
  eval::ProgramEvaluator E(P, Opts);
  Status S = E.prepare();
  EXPECT_TRUE(S.ok()) << S.message() << "\n" << printProgram(P);
  if (!S.ok())
    return {};
  eval::RunResult R = E.run();
  EXPECT_TRUE(R.Ok) << R.Error << "\n" << printProgram(P);
  if (!R.Ok)
    return {};
  auto A = E.doubleArray(Array);
  EXPECT_TRUE(A.ok()) << A.message();
  return A.ok() ? *A : std::vector<double>{};
}

void expectSameArray(const std::vector<double> &A,
                     const std::vector<double> &B, const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  ASSERT_FALSE(A.empty()) << Context;
  for (size_t I = 0; I < A.size(); ++I) {
    double Tol = 1e-9 * std::max({1.0, std::abs(A[I]), std::abs(B[I])});
    ASSERT_NEAR(A[I], B[I], Tol) << Context << " at index " << I;
  }
}

/// Applies Fn to a fresh clone's region and checks the named output array is
/// unchanged relative to the baseline.
template <typename Fn>
std::unique_ptr<Program>
checkEquivalent(const std::string &Src, const std::string &RegionName,
                const std::string &OutArray, Fn &&Apply,
                const std::string &Context) {
  std::unique_ptr<Program> Base = parseOrDie(Src);
  if (!Base)
    return nullptr;
  std::vector<double> Expected = runArray(*Base, OutArray);

  std::unique_ptr<Program> Variant = Base->clone();
  std::vector<Block *> Regions = Variant->findRegions(RegionName);
  EXPECT_EQ(Regions.size(), 1u) << Context;
  if (Regions.size() != 1)
    return nullptr;
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  TransformResult R = Apply(*Regions[0], Ctx);
  EXPECT_TRUE(R.succeeded())
      << Context << ": " << R.Message << "\n"
      << printStmt(*Regions[0]);
  if (!R.succeeded())
    return nullptr;

  std::vector<double> Actual = runArray(*Variant, OutArray);
  expectSameArray(Expected, Actual,
                  Context + "\n" + printStmt(*Regions[0]));
  return Variant;
}

const char *Matmul = R"(
#define M 12
#define N 10
#define K 9
double A[M][K];
double B[K][N];
double C[M][N];
double alpha;
double beta;
int main() {
  int i, j, k;
#pragma @Locus loop=matmul
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = beta * C[i][j] + alpha * A[i][k] * B[k][j];
  return 0;
}
)";

int countLoops(Block &Region) { return static_cast<int>(listLoops(Region).size()); }

//===----------------------------------------------------------------------===//
// Interchange
//===----------------------------------------------------------------------===//

TEST(Interchange, AllMatmulPermutationsAreEquivalent) {
  const std::vector<std::vector<int>> Perms = {
      {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto &Perm : Perms) {
    InterchangeArgs Args;
    Args.Order = Perm;
    checkEquivalent(
        Matmul, "matmul", "C",
        [&](Block &R, TransformContext &Ctx) {
          return applyInterchange(R, Args, Ctx);
        },
        "interchange");
  }
}

TEST(Interchange, IdentityIsNoOp) {
  auto Prog = parseOrDie(Matmul);
  Block *Region = Prog->findRegions("matmul")[0];
  InterchangeArgs Args;
  Args.Order = {0, 1, 2};
  TransformContext Ctx;
  EXPECT_EQ(applyInterchange(*Region, Args, Ctx).Status, TransformStatus::NoOp);
}

TEST(Interchange, RejectsNonPermutation) {
  auto Prog = parseOrDie(Matmul);
  Block *Region = Prog->findRegions("matmul")[0];
  InterchangeArgs Args;
  Args.Order = {0, 0, 1};
  TransformContext Ctx;
  EXPECT_EQ(applyInterchange(*Region, Args, Ctx).Status, TransformStatus::Error);
}

TEST(Interchange, IllegalWhenDependenceFlips) {
  const char *Src = R"(
#define N 10
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=wave
  for (i = 1; i < N; i++)
    for (j = 0; j < N - 1; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("wave")[0];
  InterchangeArgs Args;
  Args.Order = {1, 0};
  TransformContext Ctx;
  EXPECT_EQ(applyInterchange(*Region, Args, Ctx).Status,
            TransformStatus::Illegal);
}

TEST(Interchange, TriangularBoundsAreStructurallyIllegal) {
  const char *Src = R"(
#define N 10
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=tri
  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      A[i][j] = 1.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("tri")[0];
  InterchangeArgs Args;
  Args.Order = {1, 0};
  TransformContext Ctx;
  EXPECT_EQ(applyInterchange(*Region, Args, Ctx).Status,
            TransformStatus::Illegal);
}

//===----------------------------------------------------------------------===//
// Tiling
//===----------------------------------------------------------------------===//

TEST(Tiling, BandTilingEquivalent) {
  TilingArgs Args;
  Args.Factors = {4, 3, 5}; // deliberately non-dividing
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) { return applyTiling(R, Args, Ctx); },
      "band tiling");
  ASSERT_NE(Variant, nullptr);
  Block *Region = Variant->findRegions("matmul")[0];
  EXPECT_EQ(countLoops(*Region), 6);
}

TEST(Tiling, PartialBandAndUnitFactors) {
  TilingArgs Args;
  Args.Factors = {4, 1}; // tile i only, j untouched
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) { return applyTiling(R, Args, Ctx); },
      "partial band tiling");
  ASSERT_NE(Variant, nullptr);
  EXPECT_EQ(countLoops(*Variant->findRegions("matmul")[0]), 4);
}

TEST(Tiling, TwoLevelHierarchicalTiling) {
  // The Fig. 7 shape: tile the whole nest, then tile the intra-tile loops.
  checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) {
        TilingArgs L1;
        L1.Factors = {6, 6, 6};
        TransformResult R1 = applyTiling(R, L1, Ctx);
        if (!R1.succeeded())
          return R1;
        TilingArgs L2;
        L2.LoopPath = "0.0.0.0";
        L2.Factors = {2, 3, 2};
        return applyTiling(R, L2, Ctx);
      },
      "hierarchical tiling");
}

TEST(Tiling, DoublyTiledNestGetsFreshNames) {
  // Each tiling names its tile loops with freshName: the second level must
  // step around the first level's loop variables, and a name that only
  // appears inside an expression (an array, a scalar) is taken too.
  std::unique_ptr<Program> Variant = parseOrDie(Matmul);
  ASSERT_NE(Variant, nullptr);
  Block *Region = Variant->findRegions("matmul")[0];
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  TilingArgs L1;
  L1.Factors = {6, 6, 6};
  ASSERT_TRUE(applyTiling(*Region, L1, Ctx).succeeded());
  TilingArgs L2;
  L2.LoopPath = "0.0.0.0";
  L2.Factors = {2, 3, 2};
  ASSERT_TRUE(applyTiling(*Region, L2, Ctx).succeeded());

  std::vector<std::string> Vars;
  for (const LoopEntry &L : listLoops(*Region))
    Vars.push_back(L.Loop->Var);
  EXPECT_EQ(Vars, (std::vector<std::string>{"it", "jt", "kt", "it_2", "jt_2",
                                            "kt_2", "i", "j", "k"}));
  EXPECT_EQ(freshName(*Region, "it"), "it_3");
  EXPECT_EQ(freshName(*Region, "C"), "C_2");
  EXPECT_EQ(freshName(*Region, "alpha"), "alpha_2");
  EXPECT_EQ(freshName(*Region, "lt"), "lt");
}

TEST(Tiling, SingleLoopFormHoistsTileLoop) {
  TilingArgs Args;
  Args.SingleLoopDepth = 3;
  Args.Factors = {4};
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) { return applyTiling(R, Args, Ctx); },
      "single-loop tiling");
  ASSERT_NE(Variant, nullptr);
  Block *Region = Variant->findRegions("matmul")[0];
  // kt, i, j, k
  EXPECT_EQ(countLoops(*Region), 4);
  auto Outer = resolveLoopPath(*Region, "0");
  ASSERT_TRUE(Outer.ok());
  EXPECT_EQ((*Outer)->Var, "kt");
}

TEST(Tiling, LeBoundLoop) {
  const char *Src = R"(
#define N 17
double A[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i <= N - 1; i++)
    A[i] = A[i] * 2.0 + 1.0;
}
)";
  TilingArgs Args;
  Args.Factors = {4};
  checkEquivalent(
      Src, "r", "A",
      [&](Block &R, TransformContext &Ctx) { return applyTiling(R, Args, Ctx); },
      "Le-bound tiling");
}

TEST(Tiling, IllegalOnNonPermutableBand) {
  const char *Src = R"(
#define N 10
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=wave
  for (i = 1; i < N; i++)
    for (j = 0; j < N - 1; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("wave")[0];
  TilingArgs Args;
  Args.Factors = {4, 4};
  TransformContext Ctx;
  EXPECT_EQ(applyTiling(*Region, Args, Ctx).Status, TransformStatus::Illegal);
}

//===----------------------------------------------------------------------===//
// Unroll / unroll-and-jam
//===----------------------------------------------------------------------===//

TEST(Unroll, PartialWithRemainder) {
  UnrollArgs Args;
  Args.LoopPath = "0.0.0";
  Args.Factor = 4; // K=9 -> remainder 1
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) { return applyUnroll(R, Args, Ctx); },
      "partial unroll");
  ASSERT_NE(Variant, nullptr);
}

TEST(Unroll, FullUnrollOfConstantLoop) {
  UnrollArgs Args;
  Args.LoopPath = "0.0.0";
  Args.Factor = 16; // >= K=9: full unroll
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) { return applyUnroll(R, Args, Ctx); },
      "full unroll");
  ASSERT_NE(Variant, nullptr);
  EXPECT_EQ(countLoops(*Variant->findRegions("matmul")[0]), 2);
}

TEST(Unroll, SymbolicBounds) {
  const char *Src = R"(
#define N 11
double A[N];
int n = N;
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < n; i++)
    A[i] = A[i] + 1.0;
}
)";
  UnrollArgs Args;
  Args.Factor = 4;
  checkEquivalent(
      Src, "r", "A",
      [&](Block &R, TransformContext &Ctx) { return applyUnroll(R, Args, Ctx); },
      "symbolic unroll");
}

TEST(UnrollAndJam, OuterLoopJamsInner) {
  UnrollAndJamArgs Args;
  Args.Depth = 1;
  Args.Factor = 2;
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) {
        return applyUnrollAndJam(R, Args, Ctx);
      },
      "unroll-and-jam");
  ASSERT_NE(Variant, nullptr);
  // M=12 divisible by 2: main loop only; the jam keeps single j and k loops
  // inside (3 loops), since copies only differ in i.
  Block *Region = Variant->findRegions("matmul")[0];
  auto Loops = listLoops(*Region);
  ASSERT_GE(Loops.size(), 3u);
}

TEST(UnrollAndJam, MiddleLoopWithRemainder) {
  UnrollAndJamArgs Args;
  Args.Depth = 2; // j loop, N=10
  Args.Factor = 3;
  checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) {
        return applyUnrollAndJam(R, Args, Ctx);
      },
      "middle unroll-and-jam");
}

TEST(UnrollAndJam, IllegalOnBackwardInnerDependence) {
  const char *Src = R"(
#define N 10
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=wave
  for (i = 1; i < N; i++)
    for (j = 0; j < N - 1; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("wave")[0];
  UnrollAndJamArgs Args;
  Args.Depth = 1;
  Args.Factor = 2;
  TransformContext Ctx;
  EXPECT_EQ(applyUnrollAndJam(*Region, Args, Ctx).Status,
            TransformStatus::Illegal);
}

/// A non-positive step has no constant trip count. Unrolling used to divide
/// by a zero step and "fully unroll" a negative one into nothing; both must
/// now reach the symbolic path's refusal and leave the loop in place.
TEST(Unroll, RefusesNonPositiveSteps) {
  for (const char *Step : {"0", "-1"}) {
    std::string Src = std::string(R"(
double A[100];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 7; i < 100; i += )") + Step + R"()
    A[i] = 1.0;
}
)";
    for (bool Jam : {false, true}) {
      auto Prog = parseOrDie(Src);
      ASSERT_NE(Prog, nullptr);
      Block *Region = Prog->findRegions("r")[0];
      TransformContext Ctx;
      TransformResult R;
      if (Jam) {
        UnrollAndJamArgs Args;
        Args.Factor = 2;
        R = applyUnrollAndJam(*Region, Args, Ctx);
      } else {
        UnrollArgs Args;
        Args.Factor = 2;
        R = applyUnroll(*Region, Args, Ctx);
      }
      std::string Context = std::string(Jam ? "unroll-and-jam" : "unroll") +
                            ", step " + Step;
      EXPECT_EQ(R.Status, TransformStatus::Error) << Context;
      EXPECT_EQ(R.Message, "symbolic-bound unrolling requires a unit-step loop")
          << Context;
      EXPECT_EQ(countLoops(*Region), 1) << Context;
    }
  }
}

//===----------------------------------------------------------------------===//
// Fusion / distribution
//===----------------------------------------------------------------------===//

TEST(Fusion, AdjacentCompatibleLoops) {
  const char *Src = R"(
#define N 16
double A[N];
double B[N];
double C[N];
int main() {
  int i;
#pragma @Locus block=body
  for (i = 0; i < N; i++)
    A[i] = B[i] * 2.0;
  for (i = 0; i < N; i++)
    C[i] = A[i] + 1.0;
#pragma @Locus endblock
}
)";
  auto Variant = checkEquivalent(
      Src, "body", "C",
      [&](Block &R, TransformContext &Ctx) {
        FusionArgs Args;
        return applyFusion(R, Args, Ctx);
      },
      "fusion");
  ASSERT_NE(Variant, nullptr);
  EXPECT_EQ(countLoops(*Variant->findRegions("body")[0]), 1);
}

TEST(Fusion, PreventedByForwardReference) {
  const char *Src = R"(
#define N 16
double A[N];
double B[N];
double C[N];
int main() {
  int i;
#pragma @Locus block=body
  for (i = 0; i < N; i++)
    A[i] = B[i] * 2.0;
  for (i = 0; i < N - 1; i++)
    C[i] = A[i + 1] + 1.0;
#pragma @Locus endblock
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("body")[0];
  FusionArgs Args;
  TransformContext Ctx;
  EXPECT_EQ(applyFusion(*Region, Args, Ctx).Status, TransformStatus::Illegal);
}

TEST(Fusion, HeaderMismatchIsIllegal) {
  const char *Src = R"(
#define N 16
double A[N];
int main() {
  int i;
#pragma @Locus block=body
  for (i = 0; i < N; i++)
    A[i] = 1.0;
  for (i = 0; i < N - 2; i++)
    A[i] = A[i] + 1.0;
#pragma @Locus endblock
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("body")[0];
  FusionArgs Args;
  TransformContext Ctx;
  EXPECT_EQ(applyFusion(*Region, Args, Ctx).Status, TransformStatus::Illegal);
}

TEST(Distribution, SplitsIndependentStatements) {
  const char *Src = R"(
#define N 16
double A[N];
double B[N];
double X[N];
double Y[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    A[i] = X[i] * 2.0;
    B[i] = Y[i] + 3.0;
  }
}
)";
  auto Variant = checkEquivalent(
      Src, "r", "A",
      [&](Block &R, TransformContext &Ctx) {
        DistributionArgs Args;
        return applyDistribution(R, Args, Ctx);
      },
      "distribution");
  ASSERT_NE(Variant, nullptr);
  EXPECT_EQ(countLoops(*Variant->findRegions("r")[0]), 2);
}

TEST(Distribution, KeepsRecurrenceTogether) {
  const char *Src = R"(
#define N 16
double A[N];
double B[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 1; i < N; i++) {
    A[i] = B[i - 1] + 1.0;
    B[i] = A[i] * 2.0;
  }
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("r")[0];
  DistributionArgs Args;
  TransformContext Ctx;
  // A->B loop-independent flow; B->A carried flow: a cycle, one group only.
  EXPECT_EQ(applyDistribution(*Region, Args, Ctx).Status,
            TransformStatus::NoOp);
}

TEST(Distribution, KeepsScalarUsersTogether) {
  const char *Src = R"(
#define N 16
double A[N];
double B[N];
double X[N];
int main() {
  int i;
  double t;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    t = X[i] * 2.0;
    A[i] = t + 1.0;
    B[i] = t * 3.0;
  }
}
)";
  auto Variant = checkEquivalent(
      Src, "r", "A",
      [&](Block &R, TransformContext &Ctx) {
        DistributionArgs Args;
        TransformResult Res = applyDistribution(R, Args, Ctx);
        // A single scalar-linked group is a legitimate NoOp.
        if (Res.Status == TransformStatus::NoOp)
          return TransformResult::success();
        return Res;
      },
      "scalar distribution");
  ASSERT_NE(Variant, nullptr);
}

//===----------------------------------------------------------------------===//
// LICM / scalar replacement
//===----------------------------------------------------------------------===//

TEST(Licm, HoistsInvariantSubexpression) {
  const char *Src = R"(
#define N 12
double A[N][N];
double B[N];
double c;
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] = B[i] * c + A[i][j];
}
)";
  auto Variant = checkEquivalent(
      Src, "r", "A",
      [&](Block &R, TransformContext &Ctx) {
        LicmArgs Args;
        return applyLicm(R, Args, Ctx);
      },
      "licm");
  ASSERT_NE(Variant, nullptr);
  // B[i] * c is hoisted out of the j loop.
  std::string Printed = printStmt(*Variant->findRegions("r")[0]);
  EXPECT_NE(Printed.find("licm"), std::string::npos) << Printed;
}

TEST(Licm, CascadesScalarDefinitionsOutward) {
  const char *Src = R"(
#define N 8
int map[N];
double out[N][N];
double w;
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) {
      int m = map[i];
      out[i][j] = out[i][j] + w * m;
    }
}
)";
  auto Variant = checkEquivalent(
      Src, "r", "out",
      [&](Block &R, TransformContext &Ctx) {
        LicmArgs Args;
        return applyLicm(R, Args, Ctx);
      },
      "licm cascade");
  ASSERT_NE(Variant, nullptr);
  // The declaration of m must have left the j loop.
  Block *Region = Variant->findRegions("r")[0];
  auto Inner = listInnerLoops(*Region);
  ASSERT_EQ(Inner.size(), 1u);
  bool DeclInInner = false;
  for (const auto &S : Inner[0].Loop->Body->Stmts)
    if (isa<DeclStmt>(S.get()))
      DeclInInner = true;
  EXPECT_FALSE(DeclInInner);
}

TEST(Licm, DoesNotHoistVariantCode) {
  const char *Src = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    A[i] = A[i] * 2.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("r")[0];
  LicmArgs Args;
  TransformContext Ctx;
  EXPECT_EQ(applyLicm(*Region, Args, Ctx).Status, TransformStatus::NoOp);
}

TEST(ScalarRepl, PromotesReductionTarget) {
  auto Variant = checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) {
        // Put k innermost-reduction form first: i, j outer; C[i][j] is
        // invariant in k already in the baseline.
        ScalarReplArgs Args;
        return applyScalarRepl(R, Args, Ctx);
      },
      "scalar replacement");
  ASSERT_NE(Variant, nullptr);
  Block *Region = Variant->findRegions("matmul")[0];
  auto Inner = listInnerLoops(*Region);
  ASSERT_EQ(Inner.size(), 1u);
  // No reference to C inside the innermost loop anymore.
  bool UsesC = false;
  forEachStmt(*Inner[0].Loop, [&](Stmt &S) {
    forEachExpr(S, [&](ExprPtr &E) {
      std::set<std::string> Arrays;
      collectArrays(*E, Arrays);
      if (Arrays.count("C"))
        UsesC = true;
    });
  });
  EXPECT_FALSE(UsesC) << printStmt(*Region);
}

TEST(ScalarRepl, SkipsVariantSubscripts) {
  const char *Src = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    A[i] = A[i] + 1.0;
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("r")[0];
  ScalarReplArgs Args;
  TransformContext Ctx;
  EXPECT_EQ(applyScalarRepl(*Region, Args, Ctx).Status, TransformStatus::NoOp);
}

//===----------------------------------------------------------------------===//
// Generic (skewed) tiling
//===----------------------------------------------------------------------===//

const char *Heat2d = R"(
#define T 6
#define N 10
double A[2][N + 2][N + 2];
int main() {
  int t, i, j;
#pragma @Locus loop=heat2d
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      for (j = 1; j < N + 1; j++)
        A[(t + 1) % 2][i][j] = 0.125 * (A[t % 2][i + 1][j] - 2.0 * A[t % 2][i][j] + A[t % 2][i - 1][j])
          + 0.125 * (A[t % 2][i][j + 1] - 2.0 * A[t % 2][i][j] + A[t % 2][i][j - 1])
          + A[t % 2][i][j];
  return 0;
}
)";

TEST(GenericTiling, SkewedTimeTilingHeat2d) {
  GenericTilingArgs Args;
  int64_t S = 4;
  Args.Matrix = {{S, 0, 0}, {-S, S, 0}, {-S, 0, S}};
  auto Variant = checkEquivalent(
      Heat2d, "heat2d", "A",
      [&](Block &R, TransformContext &Ctx) {
        return applyGenericTiling(R, Args, Ctx);
      },
      "skewed tiling heat2d");
  ASSERT_NE(Variant, nullptr);
  EXPECT_EQ(countLoops(*Variant->findRegions("heat2d")[0]), 6);
}

TEST(GenericTiling, SkewedTimeTilingHeat1d) {
  const char *Src = R"(
#define T 7
#define N 30
double A[2][N + 2];
int main() {
  int t, i;
#pragma @Locus loop=heat1d
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      A[(t + 1) % 2][i] = 0.125 * (A[t % 2][i + 1] - 2.0 * A[t % 2][i] + A[t % 2][i - 1]) + A[t % 2][i];
}
)";
  GenericTilingArgs Args;
  Args.Matrix = {{4, 0}, {-4, 4}};
  checkEquivalent(
      Src, "heat1d", "A",
      [&](Block &R, TransformContext &Ctx) {
        return applyGenericTiling(R, Args, Ctx);
      },
      "skewed tiling heat1d");
}

TEST(GenericTiling, SeidelInPlace) {
  const char *Src = R"(
#define T 5
#define N 12
double A[N][N];
int main() {
  int t, i, j;
#pragma @Locus loop=seidel
  for (t = 0; t < T; t++)
    for (i = 1; i < N - 1; i++)
      for (j = 1; j < N - 1; j++)
        A[i][j] = (A[i - 1][j] + A[i][j - 1] + A[i][j] + A[i][j + 1] + A[i + 1][j]) / 5.0;
}
)";
  GenericTilingArgs Args;
  Args.Matrix = {{3, 0, 0}, {-3, 3, 0}, {-3, 0, 3}};
  checkEquivalent(
      Src, "seidel", "A",
      [&](Block &R, TransformContext &Ctx) {
        return applyGenericTiling(R, Args, Ctx);
      },
      "skewed tiling seidel");
}

TEST(GenericTiling, RejectsMalformedMatrix) {
  auto Prog = parseOrDie(Heat2d);
  Block *Region = Prog->findRegions("heat2d")[0];
  TransformContext Ctx;
  GenericTilingArgs Args;
  Args.Matrix = {{4, 1, 0}, {-4, 4, 0}, {-4, 0, 4}}; // upper entry nonzero
  EXPECT_EQ(applyGenericTiling(*Region, Args, Ctx).Status,
            TransformStatus::Error);
  Args.Matrix = {{4, 0}, {-4, 4}, {0, 0}}; // not square
  EXPECT_EQ(applyGenericTiling(*Region, Args, Ctx).Status,
            TransformStatus::Error);
}

//===----------------------------------------------------------------------===//
// Altdesc and pragmas
//===----------------------------------------------------------------------===//

TEST(Altdesc, ReplacesPlaceholderStatement) {
  const char *Src = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    A[i] = 1.0;
    compute_here();
  }
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("r")[0];
  TransformContext Ctx;
  Ctx.Snippets["patch"] = "A[i] = A[i] * 3.0;";
  AltdescArgs Args;
  Args.StmtPath = "0.1";
  Args.Source = "patch";
  TransformResult R = applyAltdesc(*Region, Args, Ctx);
  ASSERT_TRUE(R.succeeded()) << R.Message;
  std::string Printed = printStmt(*Region);
  EXPECT_EQ(Printed.find("compute_here"), std::string::npos);
  EXPECT_NE(Printed.find("A[i] * 3.0"), std::string::npos);
  // Program now evaluates (the unknown call would have failed).
  eval::RunResult Run = eval::evaluateProgram(*Prog);
  EXPECT_TRUE(Run.Ok) << Run.Error;
}

TEST(Altdesc, ReplacesWholeRegion) {
  const char *Src = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus block=whole
  A[0] = 1.0;
#pragma @Locus endblock
}
)";
  auto Prog = parseOrDie(Src);
  Block *Region = Prog->findRegions("whole")[0];
  TransformContext Ctx;
  AltdescArgs Args;
  Args.Source = "for (i = 0; i < 8; i++) A[i] = 2.0;";
  ASSERT_TRUE(applyAltdesc(*Region, Args, Ctx).succeeded());
  EXPECT_EQ(countLoops(*Region), 1);
}

TEST(Pragmas, AttachAndDeduplicate) {
  auto Prog = parseOrDie(Matmul);
  Block *Region = Prog->findRegions("matmul")[0];
  TransformContext Ctx;
  PragmaArgs Iv;
  Iv.LoopPath = "0.0.0";
  Iv.Text = "ivdep";
  EXPECT_TRUE(applyPragma(*Region, Iv, Ctx).succeeded());
  EXPECT_EQ(applyPragma(*Region, Iv, Ctx).Status, TransformStatus::NoOp);

  OmpForArgs Omp;
  Omp.LoopPath = "0";
  Omp.Schedule = "dynamic";
  Omp.Chunk = 4;
  EXPECT_TRUE(applyOmpFor(*Region, Omp, Ctx).succeeded());
  auto Loop = resolveLoopPath(*Region, "0");
  ASSERT_TRUE(Loop.ok());
  ASSERT_EQ((*Loop)->Pragmas.size(), 1u);
  EXPECT_EQ((*Loop)->Pragmas[0], "omp parallel for schedule(dynamic,4)");
}

TEST(Pragmas, RejectsBadSchedule) {
  auto Prog = parseOrDie(Matmul);
  Block *Region = Prog->findRegions("matmul")[0];
  TransformContext Ctx;
  OmpForArgs Omp;
  Omp.Schedule = "guided";
  EXPECT_EQ(applyOmpFor(*Region, Omp, Ctx).Status, TransformStatus::Error);
}

//===----------------------------------------------------------------------===//
// Composition: the full Fig. 7 pipeline shape
//===----------------------------------------------------------------------===//

TEST(Composition, InterchangeTileTileOmp) {
  checkEquivalent(
      Matmul, "matmul", "C",
      [&](Block &R, TransformContext &Ctx) {
        InterchangeArgs Inter;
        Inter.Order = {0, 2, 1};
        TransformResult R1 = applyInterchange(R, Inter, Ctx);
        if (!R1.succeeded())
          return R1;
        TilingArgs T1;
        T1.Factors = {4, 4, 4};
        TransformResult R2 = applyTiling(R, T1, Ctx);
        if (!R2.succeeded())
          return R2;
        TilingArgs T2;
        T2.LoopPath = "0.0.0.0";
        T2.Factors = {2, 2, 2};
        TransformResult R3 = applyTiling(R, T2, Ctx);
        if (!R3.succeeded())
          return R3;
        OmpForArgs Omp;
        Omp.LoopPath = "0";
        return applyOmpFor(R, Omp, Ctx);
      },
      "fig7 pipeline");
}

} // namespace
} // namespace locus
