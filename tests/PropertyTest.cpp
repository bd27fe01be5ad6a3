//===- PropertyTest.cpp - Parameterized and randomized property tests ---------===//
//
// Property: every transformation sequence the modules accept must preserve
// program semantics (array contents modulo floating-point reassociation).
// Sweeps cover the parameter grids; the randomized composer stacks random
// transformations and validates the survivors.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Verifier.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/eval/Evaluator.h"
#include "src/support/Rng.h"
#include "src/transform/AltdescPragmas.h"
#include "src/transform/FusionDistribution.h"
#include "src/transform/GenericTiling.h"
#include "src/transform/Interchange.h"
#include "src/transform/LicmScalarRepl.h"
#include "src/transform/Tiling.h"
#include "src/transform/Unroll.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace locus {
namespace {

using namespace cir;
using namespace transform;

std::unique_ptr<Program> parseOrDie(const std::string &Src) {
  auto P = parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::vector<double> runArrays(const Program &P, bool &Ok) {
  eval::EvalOptions Opts;
  Opts.CountCost = false;
  eval::ProgramEvaluator E(P, Opts);
  Ok = false;
  if (!E.prepare().ok())
    return {};
  eval::RunResult R = E.run();
  if (!R.Ok)
    return {};
  Ok = true;
  std::vector<double> All;
  for (const auto &G : P.Globals) {
    if (G->Elem != ElemType::Double || !G->isArray())
      continue;
    auto A = E.doubleArray(G->Name);
    if (A.ok())
      All.insert(All.end(), A->begin(), A->end());
  }
  return All;
}

void expectEquivalent(const Program &Base, const Program &Variant,
                      const std::string &Context) {
  bool OkA = false, OkB = false;
  std::vector<double> A = runArrays(Base, OkA);
  std::vector<double> B = runArrays(Variant, OkB);
  ASSERT_TRUE(OkA) << Context;
  ASSERT_TRUE(OkB) << Context << "\n" << printProgram(Variant);
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (size_t I = 0; I < A.size(); ++I) {
    double Tol = 1e-8 * std::max({1.0, std::abs(A[I]), std::abs(B[I])});
    ASSERT_NEAR(A[I], B[I], Tol)
        << Context << " at " << I << "\n"
        << printProgram(Variant);
  }
}

const char *MatmulOdd = R"(
#define M 11
#define N 13
#define K 7
double A[M][K];
double B[K][N];
double C[M][N];
int main() {
  int i, j, k;
#pragma @Locus loop=matmul
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
)";

//===----------------------------------------------------------------------===//
// Parameter sweeps
//===----------------------------------------------------------------------===//

class TilingSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TilingSweep, PreservesSemantics) {
  auto [TI, TJ, TK] = GetParam();
  auto Base = parseOrDie(MatmulOdd);
  auto Variant = Base->clone();
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  TilingArgs Args;
  Args.Factors = {static_cast<int64_t>(TI), static_cast<int64_t>(TJ),
                  static_cast<int64_t>(TK)};
  TransformResult R =
      applyTiling(*Variant->findRegions("matmul")[0], Args, Ctx);
  ASSERT_TRUE(R.applied()) << R.Message;
  expectEquivalent(*Base, *Variant, "tiling sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Factors, TilingSweep,
    ::testing::Values(std::make_tuple(2, 2, 2), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 1, 2), std::make_tuple(16, 16, 16),
                      std::make_tuple(1, 1, 3), std::make_tuple(5, 4, 3),
                      std::make_tuple(11, 13, 7), std::make_tuple(2, 8, 1)));

// The loop path is a std::string, not a const char *: gtest prints a char
// pointer with its address, and ctest names each case after the printed value.
class UnrollSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(UnrollSweep, PreservesSemantics) {
  auto [Path, Factor] = GetParam();
  auto Base = parseOrDie(MatmulOdd);
  auto Variant = Base->clone();
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  UnrollArgs Args;
  Args.LoopPath = Path;
  Args.Factor = Factor;
  TransformResult R =
      applyUnroll(*Variant->findRegions("matmul")[0], Args, Ctx);
  ASSERT_TRUE(R.applied()) << R.Message;
  expectEquivalent(*Base, *Variant, "unroll sweep");
}

INSTANTIATE_TEST_SUITE_P(
    Factors, UnrollSweep,
    ::testing::Values(std::make_tuple(std::string("0"), 2),
                      std::make_tuple(std::string("0"), 3),
                      std::make_tuple(std::string("0.0"), 4),
                      std::make_tuple(std::string("0.0"), 13),
                      std::make_tuple(std::string("0.0.0"), 2),
                      std::make_tuple(std::string("0.0.0"), 5),
                      std::make_tuple(std::string("0.0.0"), 7),
                      std::make_tuple(std::string("0.0.0"), 9)));

class UajSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(UajSweep, PreservesSemantics) {
  auto [Depth, Factor] = GetParam();
  auto Base = parseOrDie(MatmulOdd);
  auto Variant = Base->clone();
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  UnrollAndJamArgs Args;
  Args.Depth = Depth;
  Args.Factor = Factor;
  TransformResult R =
      applyUnrollAndJam(*Variant->findRegions("matmul")[0], Args, Ctx);
  ASSERT_TRUE(R.applied()) << R.Message;
  expectEquivalent(*Base, *Variant, "unroll-and-jam sweep");
}

INSTANTIATE_TEST_SUITE_P(DepthFactor, UajSweep,
                         ::testing::Values(std::make_tuple(1, 2),
                                           std::make_tuple(1, 3),
                                           std::make_tuple(1, 4),
                                           std::make_tuple(2, 2),
                                           std::make_tuple(2, 5),
                                           std::make_tuple(2, 6)));

class SkewSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SkewSweep, PreservesSemantics) {
  auto [Tile, T, N] = GetParam();
  std::ostringstream Src;
  Src << "#define T " << T << "\n#define N " << N << "\n";
  Src << R"(
double A[2][N + 2][N + 2];
int main() {
  int t, i, j;
#pragma @Locus loop=stencil
  for (t = 0; t < T; t++)
    for (i = 1; i < N + 1; i++)
      for (j = 1; j < N + 1; j++)
        A[(t + 1) % 2][i][j] = 0.25 * (A[t % 2][i - 1][j] + A[t % 2][i + 1][j] + A[t % 2][i][j - 1] + A[t % 2][i][j + 1]);
}
)";
  auto Base = parseOrDie(Src.str());
  auto Variant = Base->clone();
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  GenericTilingArgs Args;
  int64_t S = Tile;
  Args.Matrix = {{S, 0, 0}, {-S, S, 0}, {-S, 0, S}};
  TransformResult R =
      applyGenericTiling(*Variant->findRegions("stencil")[0], Args, Ctx);
  ASSERT_TRUE(R.applied()) << R.Message;
  expectEquivalent(*Base, *Variant, "skew sweep");
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkewSweep,
                         ::testing::Values(std::make_tuple(2, 5, 8),
                                           std::make_tuple(3, 6, 9),
                                           std::make_tuple(4, 7, 6),
                                           std::make_tuple(5, 4, 11),
                                           std::make_tuple(8, 9, 7)));

//===----------------------------------------------------------------------===//
// Randomized composition
//===----------------------------------------------------------------------===//

/// Applies a random transformation to the region; returns whether the module
/// reported success (illegal/error outcomes leave the region untouched only
/// for legality reasons — on success semantics must hold).
bool applyRandom(Block &Region, TransformContext &Ctx, Rng &R) {
  switch (R.index(8)) {
  case 0: {
    // Random permutation interchange on the (current) perfect nest.
    auto Outer = listOuterLoops(Region);
    if (Outer.empty())
      return false;
    std::vector<ForStmt *> Nest = perfectNest(*Outer[0].Loop);
    std::vector<int> Order(Nest.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = static_cast<int>(I);
    R.shuffle(Order);
    InterchangeArgs Args;
    Args.LoopPath = Outer[0].Path;
    Args.Order = Order;
    return applyInterchange(Region, Args, Ctx).succeeded();
  }
  case 1: {
    auto Outer = listOuterLoops(Region);
    if (Outer.empty())
      return false;
    size_t Depth = perfectNest(*Outer[0].Loop).size();
    TilingArgs Args;
    Args.LoopPath = Outer[0].Path;
    for (size_t I = 0; I < Depth; ++I)
      Args.Factors.push_back(R.range(1, 9));
    return applyTiling(Region, Args, Ctx).succeeded();
  }
  case 2: {
    auto Inner = listInnerLoops(Region);
    if (Inner.empty())
      return false;
    UnrollArgs Args;
    Args.LoopPath = Inner[R.index(Inner.size())].Path;
    Args.Factor = R.range(2, 6);
    return applyUnroll(Region, Args, Ctx).succeeded();
  }
  case 3: {
    auto Outer = listOuterLoops(Region);
    if (Outer.empty())
      return false;
    size_t Depth = perfectNest(*Outer[0].Loop).size();
    if (Depth < 2)
      return false;
    UnrollAndJamArgs Args;
    Args.LoopPath = Outer[0].Path;
    Args.Depth = static_cast<int>(R.range(1, static_cast<int64_t>(Depth) - 1));
    Args.Factor = R.range(2, 4);
    return applyUnrollAndJam(Region, Args, Ctx).succeeded();
  }
  case 4: {
    auto Loops = listLoops(Region);
    if (Loops.empty())
      return false;
    DistributionArgs Args;
    Args.LoopPath = Loops[R.index(Loops.size())].Path;
    return applyDistribution(Region, Args, Ctx).succeeded();
  }
  case 5:
    return applyLicm(Region, LicmArgs{}, Ctx).succeeded();
  case 6:
    return applyScalarRepl(Region, ScalarReplArgs{}, Ctx).succeeded();
  default: {
    auto Loops = listLoops(Region);
    if (Loops.empty())
      return false;
    OmpForArgs Args;
    Args.LoopPath = Loops[R.index(Loops.size())].Path;
    Args.Schedule = R.chance(0.5) ? "static" : "dynamic";
    Args.Chunk = R.range(0, 8);
    return applyOmpFor(Region, Args, Ctx).succeeded();
  }
  }
}

class RandomComposition : public ::testing::TestWithParam<int> {};

TEST_P(RandomComposition, StackedTransformationsPreserveSemantics) {
  const char *Sources[] = {
      MatmulOdd,
      // Imperfect nest with scalar work.
      R"(
#define N 14
#define M 9
double A[N][M];
double y[N];
double x[M];
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    y[i] = 0.5;
    for (j = 0; j < M; j++)
      y[i] = y[i] + A[i][j] * x[j];
  }
}
)",
      // Two fusable loops plus a stencil-ish dependence.
      R"(
#define N 24
double A[N];
double B[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    A[i] = B[i] * 2.0;
  for (i = 1; i < N; i++)
    B[i] = A[i - 1] + 1.0;
}
)",
  };
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  Rng R(Seed * 7919 + 13);
  const char *Source = Sources[Seed % 3];
  auto Base = parseOrDie(Source);
  auto Variant = Base->clone();
  std::string RegionName = Variant->regionNames()[0];
  TransformContext Ctx;
  Ctx.Prog = Variant.get();
  int Applied = 0;
  for (int Step = 0; Step < 5; ++Step) {
    Block *Region = Variant->findRegions(RegionName)[0];
    if (applyRandom(*Region, Ctx, R))
      ++Applied;
  }
  SCOPED_TRACE("seed " + std::to_string(Seed) + ", " +
               std::to_string(Applied) + " transforms applied");
  // Every accepted composition must produce verifier-clean IR (including
  // the unparse→reparse round trip) ...
  support::DiagEngine Diags;
  EXPECT_TRUE(analysis::verifyProgram(*Variant, Diags))
      << Diags.renderAll() << "\n=== printed ===\n"
      << printProgram(*Variant);
  // ... and preserve semantics.
  expectEquivalent(*Base, *Variant, "random composition seed " +
                                        std::to_string(Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomComposition, ::testing::Range(0, 24));

} // namespace
} // namespace locus
