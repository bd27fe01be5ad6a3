//===- ProjectionMemoTest.cpp - Projection memo against a fresh assessment ===//
//
// The search objective serves a point whose active projection
// (Point::activeKey) was already assessed from its projection memo, before
// it materializes anything. This differential test runs three seeded
// searches the memo serves: syrk as `locus_cli --discover --tune --budget
// 100 --seed 7` tunes it, and the Fig. 5 and Fig. 7 dgemm searches. Every
// record the memo served must equal
//
//   - the same search's record with the eval cache, and so the memo, off:
//     point, metric bits, failure kind and detail;
//   - Orchestrator::runPoint of its point: the same cycle bits for a
//     success, the same failure text (and the kind its form shows) for a
//     point that fails to materialize or to run.
//
// The searches run unpruned, so every record reaches the objective and the
// records the memo served follow from the History order alone: those whose
// active projection an earlier record already had. Pruning never changes
// a trajectory (the Anchors rows check that), only which records the
// objective sees.
//
//===----------------------------------------------------------------------===//

#include "TestFiles.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <bit>
#include <set>

namespace locus {
namespace {

using driver::Orchestrator;
using driver::OrchestratorOptions;
using search::FailureKind;

struct SeededSearch {
  std::string Name;
  std::shared_ptr<const lang::LocusProgram> Locus;
  std::shared_ptr<const cir::Program> Target;
  OrchestratorOptions Opts;
};

OrchestratorOptions seeded(int Budget) {
  OrchestratorOptions Opts;
  Opts.MaxEvaluations = Budget;
  Opts.Seed = 7;
  Opts.StaticPrune = false;
  return Opts;
}

void add(std::vector<SeededSearch> &Out, const std::string &Name,
         const std::string &Locus, std::shared_ptr<const cir::Program> Target,
         int Budget) {
  auto L = lang::parseLocusProgram(Locus);
  ASSERT_TRUE(L.ok()) << Name << ": " << L.message();
  Out.push_back({Name, std::move(*L), std::move(Target), seeded(Budget)});
}

std::vector<SeededSearch> searches() {
  std::vector<SeededSearch> Out;
  // syrk: every annotatable nest under the generic Fig. 13 program, as
  // --discover --tune runs it on the default machine.
  auto Syrk = cir::parseProgram(test::slurp(
      LOCUS_TEST_DATA_DIR "/../../examples/polybench/syrk.c"));
  EXPECT_TRUE(Syrk.ok()) << Syrk.message();
  if (Syrk.ok()) {
    std::shared_ptr<cir::Program> Annotated = std::move(*Syrk);
    analysis::DiscoveryOptions DOpts;
    DOpts.Machine = OrchestratorOptions().Eval.Machine;
    analysis::DiscoveryReport Report =
        analysis::discoverRegions(*Annotated, DOpts);
    EXPECT_TRUE(analysis::annotateRegions(*Annotated, Report, 0).ok());
    for (const analysis::NestCandidate *C : Report.annotatable(0))
      add(Out, "syrk/" + C->Name, analysis::genericLocusProgram(*C), Annotated,
          100);
  }
  auto Dgemm = [](int N) -> std::shared_ptr<const cir::Program> {
    auto P = cir::parseProgram(workloads::dgemmSource(N, N, N));
    EXPECT_TRUE(P.ok()) << P.message();
    return P.ok() ? std::move(*P) : nullptr;
  };
  add(Out, "dgemm_fig5", workloads::dgemmLocusFig5(), Dgemm(24), 40);
  add(Out, "dgemm_fig7", workloads::dgemmLocusFig7(32), Dgemm(32), 100);
  return Out;
}

uint64_t bits(double D) { return std::bit_cast<uint64_t>(D); }

TEST(ProjectionMemo, ServedRecordsEqualAFreshAssessment) {
  std::vector<SeededSearch> All = searches();
  ASSERT_EQ(All.size(), 4u) << "syrk has two nests, plus two dgemm searches";
  for (const SeededSearch &S : All) {
    ASSERT_NE(S.Target, nullptr) << S.Name;
    auto R = Orchestrator(*S.Locus, *S.Target, S.Opts).runSearch();
    ASSERT_TRUE(R.ok()) << S.Name << ": " << R.message();
    OrchestratorOptions NoMemo = S.Opts;
    NoMemo.UseEvalCache = false;
    auto Fresh = Orchestrator(*S.Locus, *S.Target, NoMemo).runSearch();
    ASSERT_TRUE(Fresh.ok()) << S.Name << ": " << Fresh.message();
    EXPECT_EQ(Fresh->Search.ProjectionHits, 0u) << S.Name;

    const std::vector<search::EvalRecord> &H = R->Search.History;
    ASSERT_EQ(H.size(), Fresh->Search.History.size()) << S.Name;
    Orchestrator Direct(*S.Locus, *S.Target, S.Opts);
    std::set<std::string> Assessed;
    uint64_t Served = 0;
    for (size_t I = 0; I < H.size(); ++I) {
      const search::EvalRecord &Rec = H[I];
      const search::EvalRecord &Ref = Fresh->Search.History[I];
      std::string What = S.Name + " record " + std::to_string(I);
      ASSERT_EQ(Rec.P.key(), Ref.P.key()) << What;
      std::string Active = Rec.P.activeKey(R->Space);
      bool FromMemo = Assessed.count(Active) != 0;
      // An unstable reading is never memoized, as in the eval cache.
      if (Rec.Failure != FailureKind::MetricUnstable)
        Assessed.insert(Active);
      if (!FromMemo)
        continue;
      ++Served;

      EXPECT_EQ(bits(Rec.Metric), bits(Ref.Metric)) << What;
      EXPECT_EQ(Rec.Failure, Ref.Failure) << What;
      EXPECT_EQ(Rec.Detail, Ref.Detail) << What;

      auto D = Direct.runPoint(Rec.P);
      if (Rec.Valid) {
        ASSERT_TRUE(D.ok()) << What << ": " << D.message();
        EXPECT_EQ(bits(D->Run.Cycles), bits(Rec.Metric)) << What;
        continue;
      }
      std::string Message = D.ok() ? "" : D.message();
      bool Invalidated = Message == "invalid variant: " + Rec.Detail;
      bool Failed = !D.ok() && Message == Rec.Detail;
      switch (Rec.Failure) {
      case FailureKind::InvalidPoint:
        EXPECT_TRUE(Invalidated) << What << ": " << Message;
        break;
      case FailureKind::TransformIllegal: // an error or an illegal rewrite
        EXPECT_TRUE(Invalidated || Failed) << What << ": " << Message;
        break;
      case FailureKind::PrepareFailed:
      case FailureKind::RuntimeTrap:
        EXPECT_TRUE(Failed) << What << ": " << Message;
        break;
      default:
        // runPoint enforces no deadline and compares no checksum; the
        // fresh search above stands in for it.
        break;
      }
    }
    EXPECT_EQ(Served, R->Search.ProjectionHits) << S.Name;
    EXPECT_GT(Served, 0u) << S.Name << ": the memo served no record";
  }
}

/// A point that fails while it is materialized is memoized too: the
/// illegal interchange arm is one projection whatever the other arm's
/// unroll factor says.
TEST(ProjectionMemo, MaterializationFailuresAreServedAsFirstReported) {
  auto CP = cir::parseProgram(R"(
double A[64][64];
int main() {
  int i, j;
#pragma @Locus loop=nest
  for (i = 1; i < 64; i++)
    for (j = 0; j < 63; j++)
      A[i][j] = A[i-1][j+1] + 1.0;
}
)");
  ASSERT_TRUE(CP.ok()) << CP.message();
  auto LP = lang::parseLocusProgram(R"(
CodeReg nest {
  {
    RoseLocus.Interchange(order=[1, 0]);
  } OR {
    RoseLocus.Unroll(loop=innermost, factor=poweroftwo(2..8));
  }
}
)");
  ASSERT_TRUE(LP.ok()) << LP.message();
  OrchestratorOptions Opts;
  Opts.SearcherName = "exhaustive";
  auto R = Orchestrator(**LP, **CP, Opts).runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  Opts.UseEvalCache = false;
  auto Fresh = Orchestrator(**LP, **CP, Opts).runSearch();
  ASSERT_TRUE(Fresh.ok()) << Fresh.message();

  // Six points: three illegal interchanges, one projection among them.
  const std::vector<search::EvalRecord> &H = R->Search.History;
  ASSERT_EQ(H.size(), 6u);
  EXPECT_EQ(R->Search.failures(FailureKind::TransformIllegal), 3);
  EXPECT_EQ(R->Search.ProjectionHits, 2u);
  ASSERT_EQ(Fresh->Search.History.size(), H.size());
  for (size_t I = 0; I < H.size(); ++I) {
    const search::EvalRecord &Ref = Fresh->Search.History[I];
    EXPECT_EQ(H[I].P.key(), Ref.P.key()) << I;
    EXPECT_EQ(H[I].Failure, Ref.Failure) << I;
    EXPECT_EQ(H[I].Detail, Ref.Detail) << I;
    EXPECT_EQ(bits(H[I].Metric), bits(Ref.Metric)) << I;
  }
}

} // namespace
} // namespace locus
