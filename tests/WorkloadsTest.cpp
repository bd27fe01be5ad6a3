//===- WorkloadsTest.cpp - workload generator sanity tests --------------------===//

#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/eval/Evaluator.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

TEST(Workloads, AllStencilSourcesParseAndRun) {
  for (workloads::StencilKind K :
       {workloads::StencilKind::Jacobi1D, workloads::StencilKind::Jacobi2D,
        workloads::StencilKind::Heat1D, workloads::StencilKind::Heat2D,
        workloads::StencilKind::Seidel1D, workloads::StencilKind::Seidel2D}) {
    auto P = cir::parseProgram(workloads::stencilSource(K, 4, 8));
    ASSERT_TRUE(P.ok()) << workloads::stencilName(K) << ": " << P.message();
    EXPECT_EQ((*P)->findRegions("stencil").size(), 1u);
    eval::EvalOptions Opts;
    Opts.CountCost = false;
    eval::RunResult R = eval::evaluateProgram(**P, Opts);
    EXPECT_TRUE(R.Ok) << workloads::stencilName(K) << ": " << R.Error;
  }
}

TEST(Workloads, CorpusParsesAndRuns) {
  std::vector<workloads::CorpusEntry> Corpus = workloads::loopCorpus(0.02, 11);
  ASSERT_GE(Corpus.size(), 16u); // at least one per suite
  std::set<std::string> Suites;
  for (const workloads::CorpusEntry &E : Corpus) {
    Suites.insert(E.Suite);
    auto P = cir::parseProgram(E.Source);
    ASSERT_TRUE(P.ok()) << E.Name << ": " << P.message();
    EXPECT_EQ((*P)->findRegions("scop").size(), 1u) << E.Name;
    eval::EvalOptions Opts;
    Opts.CountCost = false;
    eval::RunResult R = eval::evaluateProgram(**P, Opts);
    EXPECT_TRUE(R.Ok) << E.Name << ": " << R.Error;
  }
  EXPECT_EQ(Suites.size(), 16u);
}

TEST(Workloads, CorpusIsDeterministic) {
  auto A = workloads::loopCorpus(0.05, 3);
  auto B = workloads::loopCorpus(0.05, 3);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Source, B[I].Source);
  // A different seed draws different sizes.
  auto C = workloads::loopCorpus(0.05, 4);
  bool AnyDiff = false;
  for (size_t I = 0; I < std::min(A.size(), C.size()); ++I)
    if (A[I].Source != C[I].Source)
      AnyDiff = true;
  EXPECT_TRUE(AnyDiff);
}

TEST(Workloads, CorpusSuiteCountsMatchPaperAtFullScale) {
  auto Corpus = workloads::loopCorpus(1.0, 3);
  EXPECT_EQ(Corpus.size(), 856u); // Table I total
}

TEST(Workloads, KripkeSnippetsCoverAllKernelsAndLayouts) {
  workloads::KripkeConfig C;
  for (const std::string &Kernel : workloads::kripkeKernels()) {
    auto P = cir::parseProgram(workloads::kripkeKernelSource(C, Kernel));
    ASSERT_TRUE(P.ok()) << Kernel << ": " << P.message();
    auto Snips = workloads::kripkeSnippets(C, Kernel);
    EXPECT_EQ(Snips.size(), 6u) << Kernel;
    for (const auto &[Name, Text] : Snips) {
      auto Stmts = cir::parseStatements(Text);
      ASSERT_TRUE(Stmts.ok()) << Name << ": " << Stmts.message();
      EXPECT_FALSE(Stmts->empty()) << Name;
    }
    for (const std::string &Layout : workloads::kripkeLayouts()) {
      auto Hand = cir::parseProgram(
          workloads::kripkeHandOptimizedSource(C, Kernel, Layout));
      ASSERT_TRUE(Hand.ok()) << Kernel << "/" << Layout << ": "
                             << Hand.message();
    }
  }
}

TEST(Workloads, PolybenchSourcesAreUnannotatedAndRun) {
  ASSERT_EQ(workloads::polybenchKernels().size(), 8u);
  for (const std::string &Name : workloads::polybenchKernels()) {
    std::string Source = workloads::polybenchSource(Name, 8);
    // These are the region-discovery inputs: no @Locus markers anywhere.
    EXPECT_EQ(Source.find("@Locus"), std::string::npos) << Name;
    auto P = cir::parseProgram(Source);
    ASSERT_TRUE(P.ok()) << Name << ": " << P.message();
    eval::EvalOptions Opts;
    Opts.CountCost = false;
    eval::RunResult R = eval::evaluateProgram(**P, Opts);
    EXPECT_TRUE(R.Ok) << Name << ": " << R.Error;
  }
}

TEST(Workloads, KripkeHandVersionsDifferByLayout) {
  workloads::KripkeConfig C;
  C.NumZones = 8;
  C.NumGroups = 3;
  C.NumMoments = 2;
  C.NumDirections = 4;
  // Each layout linearizes the 3D quantities differently, so the
  // position-based default initialization gives layout-specific inputs:
  // checksums differ across layouts (within one layout the Locus and hand
  // versions match — asserted by the driver tests), and so do the costs.
  std::set<long long> Cycles;
  for (const std::string &Layout : workloads::kripkeLayouts()) {
    auto P = cir::parseProgram(
        workloads::kripkeHandOptimizedSource(C, "LTimes", Layout));
    ASSERT_TRUE(P.ok());
    eval::ProgramEvaluator E(**P, eval::EvalOptions());
    ASSERT_TRUE(E.prepare().ok());
    workloads::initKripkeArrays(E, C);
    eval::RunResult R = E.run();
    ASSERT_TRUE(R.Ok) << Layout << ": " << R.Error;
    Cycles.insert(static_cast<long long>(R.Cycles));
  }
  EXPECT_GE(Cycles.size(), 3u) << "layouts should have distinct costs";
}

} // namespace
} // namespace locus
