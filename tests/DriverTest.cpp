//===- DriverTest.cpp - End-to-end orchestration tests ------------------------===//

#include "src/baseline/Pluto.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using driver::Orchestrator;
using driver::OrchestratorOptions;

std::unique_ptr<lang::LocusProgram> parseLocusOrDie(const std::string &Src) {
  auto P = lang::parseLocusProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::unique_ptr<cir::Program> parseCOrDie(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

OrchestratorOptions tinyOptions() {
  OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 30;
  Opts.Seed = 5;
  return Opts;
}

TEST(Driver, SearchWorkflowOnFig5) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig5());
  auto CP = parseCOrDie(workloads::dgemmSource(24, 24, 24));
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = "bandit";
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Space.Params.size(), 3u);
  EXPECT_GT(R->Search.Evaluations, 0);
  EXPECT_GE(R->Speedup, 1.0); // non-prescriptive floor
  ASSERT_NE(R->BestProgram, nullptr);
  if (!R->BaselineChosen) {
    // Checksum-equivalence was enforced per evaluated variant.
    EXPECT_LT(R->BestCycles, R->BaselineCycles);
  }
}

TEST(Driver, SearchWorkflowOnFig7FindsTilingWin) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig7(16));
  auto CP = parseCOrDie(workloads::dgemmSource(32, 32, 32));
  OrchestratorOptions Opts = tinyOptions();
  Opts.MaxEvaluations = 40;
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  // On the tiny machine (1 KB L1) a 32^3 DGEMM is strongly cache-bound:
  // interchange+tiling+parallel must beat the naive baseline.
  EXPECT_FALSE(R->BaselineChosen);
  EXPECT_GT(R->Speedup, 1.5) << "speedup " << R->Speedup;
}

TEST(Driver, PointRoundTripReproducesBestVariant) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig5());
  auto CP = parseCOrDie(workloads::dgemmSource(24, 24, 24));
  OrchestratorOptions Opts = tinyOptions();
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  if (R->BaselineChosen)
    GTEST_SKIP() << "baseline won; no point to round-trip";

  std::string Text = search::serializePoint(R->Search.Best);
  auto Restored = search::deserializePoint(Text, R->Space);
  ASSERT_TRUE(Restored.ok()) << Restored.message();
  auto Direct = Orch.runPoint(*Restored);
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  EXPECT_DOUBLE_EQ(Direct->Run.Cycles, R->BestCycles);
}

TEST(Driver, NonPrescriptiveFallbackOnUselessProgram) {
  // A program that only adds unprofitable work: distribute nothing and
  // unroll by 2 on a loop already dominated by memory cost; the fallback
  // must still return a valid result with speedup >= 1... but more robust:
  // a program whose transformation is always Illegal yields only invalid
  // points, so the baseline is chosen.
  const char *Src = R"(
#define N 16
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=wave
  for (i = 1; i < N; i++)
    for (j = 0; j < N - 1; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
}
)";
  const char *Prog = R"(
CodeReg wave {
  f = poweroftwo(2..8);
  RoseLocus.Tiling(loop="0", factor=[f, f]);
}
)";
  auto LP = parseLocusOrDie(Prog);
  auto CP = parseCOrDie(Src);
  OrchestratorOptions Opts = tinyOptions();
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->BaselineChosen);
  EXPECT_EQ(R->Speedup, 1.0);
  EXPECT_GT(R->Search.InvalidPoints, 0);
}

TEST(Driver, DirectWorkflow) {
  const char *Prog = R"(
CodeReg matmul {
  RoseLocus.Interchange(order=[0, 2, 1]);
  Pips.Tiling(loop="0", factor=[8, 8, 8]);
  Pragma.OMPFor(loop="0");
}
)";
  auto LP = parseLocusOrDie(Prog);
  auto CP = parseCOrDie(workloads::dgemmSource(24, 24, 24));
  OrchestratorOptions Opts = tinyOptions();
  Orchestrator Orch(*LP, *CP, Opts);
  auto Direct = Orch.runDirect();
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  EXPECT_EQ(Direct->Exec.TransformsApplied, 3);
  auto Baseline = Orch.evaluateBaseline();
  ASSERT_TRUE(Baseline.ok());
  EXPECT_NEAR(Direct->Run.Checksum, Baseline->Checksum,
              1e-9 * std::abs(Baseline->Checksum));
}

TEST(Driver, RegionHashes) {
  auto LP = parseLocusOrDie("CodeReg matmul { RoseLocus.LICM(); }");
  auto CP1 = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  auto CP2 = parseCOrDie(workloads::dgemmSource(8, 8, 9));
  OrchestratorOptions Opts = tinyOptions();
  Orchestrator O1(*LP, *CP1, Opts);
  Orchestrator O2(*LP, *CP2, Opts);
  auto H1 = O1.regionHashes();
  auto H2 = O2.regionHashes();
  ASSERT_TRUE(H1.count("matmul"));
  // K differs -> the region text (bounds) differs -> the key changes.
  EXPECT_NE(H1["matmul"], H2["matmul"]);
  // Same source hashes identically.
  auto CP3 = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  Orchestrator O3(*LP, *CP3, Opts);
  EXPECT_EQ(H1["matmul"], O3.regionHashes()["matmul"]);
}

//===----------------------------------------------------------------------===//
// Kripke integration
//===----------------------------------------------------------------------===//

class KripkeLayouts : public ::testing::TestWithParam<std::string> {};

TEST_P(KripkeLayouts, ScatteringMatchesHandOptimized) {
  const std::string &Layout = GetParam();
  workloads::KripkeConfig C;
  C.NumZones = 16;
  C.NumGroups = 4;
  C.NumMoments = 3;

  std::string Skeleton = workloads::kripkeKernelSource(C, "Scattering");
  auto CP = parseCOrDie(Skeleton);
  auto LP = parseLocusOrDie(workloads::kripkeLocusFig11("Scattering"));

  OrchestratorOptions Opts = tinyOptions();
  Opts.Snippets = workloads::kripkeSnippets(C, "Scattering");
  Opts.InitHook = [C](eval::ProgramEvaluator &E) {
    workloads::initKripkeArrays(E, C);
  };
  Orchestrator Orch(*LP, *CP, Opts);

  // Pin the layout enum to this layout.
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->Space.Params.size(), 1u);
  search::Point P;
  const auto &Layouts = workloads::kripkeLayouts();
  auto It = std::find(Layouts.begin(), Layouts.end(), Layout);
  P.set(R->Space.Params[0].Id, static_cast<int64_t>(It - Layouts.begin()));
  auto Direct = Orch.runPoint(P);
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  EXPECT_GE(Direct->Exec.TransformsApplied, 3);

  // The hand-optimized source must compute the same result.
  std::string Hand = workloads::kripkeHandOptimizedSource(C, "Scattering", Layout);
  auto HandProg = parseCOrDie(Hand);
  eval::EvalOptions EOpts;
  EOpts.Machine = machine::MachineConfig::tiny();
  eval::ProgramEvaluator HandEval(*HandProg, EOpts);
  ASSERT_TRUE(HandEval.prepare().ok());
  workloads::initKripkeArrays(HandEval, C);
  eval::RunResult HandRun = HandEval.run();
  ASSERT_TRUE(HandRun.Ok) << HandRun.Error;
  EXPECT_NEAR(Direct->Run.Checksum, HandRun.Checksum,
              1e-9 * std::abs(HandRun.Checksum))
      << "layout " << Layout;
}

INSTANTIATE_TEST_SUITE_P(AllLayouts, KripkeLayouts,
                         ::testing::Values("DGZ", "DZG", "GDZ", "GZD", "ZDG",
                                           "ZGD"));

TEST(Kripke, AllKernelsRunUnderAllLayouts) {
  workloads::KripkeConfig C;
  C.NumZones = 8;
  C.NumGroups = 3;
  C.NumMoments = 2;
  C.NumDirections = 4;
  for (const std::string &Kernel : workloads::kripkeKernels()) {
    auto CP = parseCOrDie(workloads::kripkeKernelSource(C, Kernel));
    auto LP = parseLocusOrDie(workloads::kripkeLocusFig11(Kernel));
    OrchestratorOptions Opts = tinyOptions();
    Opts.Snippets = workloads::kripkeSnippets(C, Kernel);
    Opts.InitHook = [C](eval::ProgramEvaluator &E) {
      workloads::initKripkeArrays(E, C);
    };
    Opts.MaxEvaluations = 6; // the layout enum is the whole space
    Opts.SearcherName = "exhaustive";
    Orchestrator Orch(*LP, *CP, Opts);
    auto R = Orch.runSearch();
    ASSERT_TRUE(R.ok()) << Kernel << ": " << R.message();
    EXPECT_EQ(R->Search.Evaluations, 6) << Kernel;
    EXPECT_TRUE(R->Search.Found) << Kernel;
  }
}

//===----------------------------------------------------------------------===//
// Pluto baseline
//===----------------------------------------------------------------------===//

TEST(Pluto, TransformsAffineMatmul) {
  auto CP = parseCOrDie(workloads::dgemmSource(48, 48, 48));
  baseline::PlutoOptions Opts;
  Opts.TileSize = 8;
  baseline::PlutoOutcome Out = baseline::runPluto(*CP, "matmul", Opts);
  ASSERT_TRUE(Out.Transformed) << Out.Summary;
  cir::Block *Region = Out.Program->findRegions("matmul")[0];
  EXPECT_EQ(cir::listLoops(*Region).size(), 6u); // 3 tile + 3 intra
  // Semantics preserved.
  eval::EvalOptions EOpts;
  EOpts.CountCost = false;
  eval::RunResult Base = eval::evaluateProgram(*CP, EOpts);
  eval::RunResult Opt = eval::evaluateProgram(*Out.Program, EOpts);
  ASSERT_TRUE(Base.Ok && Opt.Ok);
  EXPECT_NEAR(Base.Checksum, Opt.Checksum, 1e-9 * std::abs(Base.Checksum));
}

TEST(Pluto, RefusesNonAffineCode) {
  const char *Src = R"(
#define N 32
double A[N];
double B[N];
int idx[N];
int main() {
  int i;
#pragma @Locus loop=scop
  for (i = 0; i < N; i++)
    A[idx[i]] = A[idx[i]] + B[i];
}
)";
  auto CP = parseCOrDie(Src);
  baseline::PlutoOptions Opts;
  Opts.TrySkewedTiling = false;
  baseline::PlutoOutcome Out = baseline::runPluto(*CP, "scop", Opts);
  EXPECT_FALSE(Out.Transformed);
}

TEST(Pluto, SkewTilesStencilWithValidation) {
  auto CP = parseCOrDie(
      workloads::stencilSource(workloads::StencilKind::Heat2D, 6, 12));
  eval::EvalOptions EOpts;
  EOpts.CountCost = false;
  eval::RunResult Base = eval::evaluateProgram(*CP, EOpts);
  ASSERT_TRUE(Base.Ok);
  baseline::PlutoOptions Opts;
  Opts.TileSize = 4;
  baseline::PlutoOutcome Out = baseline::runPluto(
      *CP, "stencil", Opts, [&](const cir::Program &Candidate) {
        eval::RunResult R = eval::evaluateProgram(Candidate, EOpts);
        return R.Ok &&
               std::abs(R.Checksum - Base.Checksum) <
                   1e-9 * std::max(1.0, std::abs(Base.Checksum));
      });
  ASSERT_TRUE(Out.Transformed) << Out.Summary;
  EXPECT_NE(Out.Summary.find("skewed"), std::string::npos) << Out.Summary;
}

TEST(Pluto, TunedDgemmMatchesBaselineSemantics) {
  auto Naive = parseCOrDie(workloads::dgemmSource(24, 24, 24));
  auto Tuned = parseCOrDie(baseline::tunedDgemmSource(24, 24, 24, 8));
  eval::EvalOptions EOpts;
  EOpts.CountCost = false;
  eval::RunResult A = eval::evaluateProgram(*Naive, EOpts);
  eval::RunResult B = eval::evaluateProgram(*Tuned, EOpts);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_NEAR(A.Checksum, B.Checksum, 1e-9 * std::abs(A.Checksum));
}

} // namespace
} // namespace locus
