//===- ProjectionMemoTest.cpp - Projection reuse against fresh runs -----===//
//
// The evaluation driver serves a point whose active projection
// (Point::activeKey) was already assessed, without calling the objective.
// This differential test runs three seeded searches it serves: syrk as
// `locus_cli --discover --tune --budget 100 --seed 7` tunes it, and the
// Fig. 5 and Fig. 7 dgemm searches. Each must
//
//   - give the same records (point, metric bits, failure kind and detail)
//     and the same ProjectionHits with the eval cache on and off: reuse is
//     the driver's, not the cache's;
//
// and every record the driver served must equal Orchestrator::runPoint of
// its point, classified as the objective classifies it: the same cycle
// bits for a success, the same failure text (and the kind its form shows)
// for a point that fails to materialize or to run, and the deadline and
// the checksum judged against evaluateBaseline().
//
// The searches run unpruned, so the records the driver served follow from
// the History order alone: those whose active projection an earlier
// record already had. Pruning never changes a trajectory (the Anchors rows
// check that), only which records the objective sees.
//
//===----------------------------------------------------------------------===//

#include "TestFiles.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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

/// The outcome the objective reports for \p P, judged from runPoint and the
/// baseline run \p Base the way the objective judges its own run.
search::EvalOutcome referenceOutcome(Orchestrator &Direct,
                                     const OrchestratorOptions &Opts,
                                     const eval::RunResult &Base,
                                     const search::Point &P) {
  auto D = Direct.runPoint(P);
  if (!D.ok()) {
    // The form of the message tells the kind apart only up to the two
    // that share one: the test below accepts either for an invalid point.
    const std::string &M = D.message();
    const std::string Invalid = "invalid variant: ";
    if (M.compare(0, Invalid.size(), Invalid) == 0)
      return search::EvalOutcome::fail(FailureKind::InvalidPoint,
                                       M.substr(Invalid.size()));
    if (M == "iteration budget exceeded")
      return search::EvalOutcome::fail(FailureKind::BudgetExceeded, M);
    return search::EvalOutcome::fail(FailureKind::RuntimeTrap, M);
  }
  double Deadline =
      Opts.VariantDeadlineFactor * static_cast<double>(Base.LoopIterations);
  if (Opts.VariantDeadlineFactor > 0 &&
      static_cast<double>(D->Run.LoopIterations) > std::floor(Deadline))
    return search::EvalOutcome::fail(FailureKind::BudgetExceeded,
                                     "iteration budget exceeded");
  double Tol = Opts.ChecksumRtol * std::max(1.0, std::abs(Base.Checksum));
  if (std::isnan(D->Run.Checksum) ||
      std::abs(D->Run.Checksum - Base.Checksum) > Tol)
    return search::EvalOutcome::fail(
        FailureKind::ChecksumMismatch,
        "checksum " + std::to_string(D->Run.Checksum) + " vs baseline " +
            std::to_string(Base.Checksum));
  return search::EvalOutcome::success(D->Run.Cycles);
}

TEST(ProjectionMemo, ServedRecordsEqualAFreshAssessment) {
  std::vector<SeededSearch> All = searches();
  ASSERT_EQ(All.size(), 4u) << "syrk has two nests, plus two dgemm searches";
  for (const SeededSearch &S : All) {
    ASSERT_NE(S.Target, nullptr) << S.Name;
    auto R = Orchestrator(*S.Locus, *S.Target, S.Opts).runSearch();
    ASSERT_TRUE(R.ok()) << S.Name << ": " << R.message();
    OrchestratorOptions NoCache = S.Opts;
    NoCache.UseEvalCache = false;
    auto Uncached = Orchestrator(*S.Locus, *S.Target, NoCache).runSearch();
    ASSERT_TRUE(Uncached.ok()) << S.Name << ": " << Uncached.message();
    EXPECT_EQ(Uncached->Search.ProjectionHits, R->Search.ProjectionHits)
        << S.Name;

    const std::vector<search::EvalRecord> &H = R->Search.History;
    ASSERT_EQ(H.size(), Uncached->Search.History.size()) << S.Name;
    Orchestrator Direct(*S.Locus, *S.Target, S.Opts);
    auto Base = Direct.evaluateBaseline();
    ASSERT_TRUE(Base.ok()) << S.Name << ": " << Base.message();
    std::set<std::string> Assessed;
    uint64_t Served = 0;
    for (size_t I = 0; I < H.size(); ++I) {
      const search::EvalRecord &Rec = H[I];
      const search::EvalRecord &Ref = Uncached->Search.History[I];
      std::string What = S.Name + " record " + std::to_string(I);
      ASSERT_EQ(Rec.P.key(), Ref.P.key()) << What;
      EXPECT_EQ(bits(Rec.Metric), bits(Ref.Metric)) << What;
      EXPECT_EQ(Rec.Failure, Ref.Failure) << What;
      EXPECT_EQ(Rec.Detail, Ref.Detail) << What;

      std::string Active = Rec.P.activeKey(R->Space);
      bool Reused = Assessed.count(Active) != 0;
      // An unstable reading is never reused.
      if (Rec.Failure != FailureKind::MetricUnstable)
        Assessed.insert(Active);
      if (!Reused)
        continue;
      ++Served;

      search::EvalOutcome Want = referenceOutcome(Direct, S.Opts, *Base, Rec.P);
      EXPECT_EQ(Rec.Detail, Want.Detail) << What;
      if (Want.Failure == FailureKind::InvalidPoint) {
        // An error or an illegal rewrite, or a module's Illegal verdict.
        EXPECT_TRUE(Rec.Failure == FailureKind::InvalidPoint ||
                    Rec.Failure == FailureKind::TransformIllegal)
            << What;
      } else if (Want.Failure == FailureKind::RuntimeTrap) {
        // Either stage reports its message bare.
        EXPECT_TRUE(Rec.Failure == FailureKind::RuntimeTrap ||
                    Rec.Failure == FailureKind::PrepareFailed ||
                    Rec.Failure == FailureKind::TransformIllegal)
            << What;
      } else {
        EXPECT_EQ(Rec.Failure, Want.Failure) << What;
        EXPECT_EQ(bits(Rec.Metric), bits(Want.Metric)) << What;
      }
    }
    EXPECT_EQ(Served, R->Search.ProjectionHits) << S.Name;
    EXPECT_GT(Served, 0u) << S.Name << ": the driver served no record";
  }
}

/// A point that fails while it is materialized is reused too: the illegal
/// interchange arm is one projection whatever the other arm's unroll
/// factor says.
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
  auto Uncached = Orchestrator(**LP, **CP, Opts).runSearch();
  ASSERT_TRUE(Uncached.ok()) << Uncached.message();

  // Six points: three illegal interchanges, one projection among them.
  const std::vector<search::EvalRecord> &H = R->Search.History;
  ASSERT_EQ(H.size(), 6u);
  EXPECT_EQ(R->Search.failures(FailureKind::TransformIllegal), 3);
  EXPECT_EQ(R->Search.ProjectionHits, 2u);
  EXPECT_EQ(Uncached->Search.ProjectionHits, 2u);
  ASSERT_EQ(Uncached->Search.History.size(), H.size());
  const search::EvalRecord *First = nullptr;
  for (size_t I = 0; I < H.size(); ++I) {
    if (H[I].Failure == FailureKind::TransformIllegal) {
      // The two repeats report exactly what the first one did.
      if (!First)
        First = &H[I];
      EXPECT_EQ(H[I].Detail, First->Detail) << I;
    }
    const search::EvalRecord &Ref = Uncached->Search.History[I];
    EXPECT_EQ(H[I].P.key(), Ref.P.key()) << I;
    EXPECT_EQ(H[I].Failure, Ref.Failure) << I;
    EXPECT_EQ(H[I].Detail, Ref.Detail) << I;
    EXPECT_EQ(bits(H[I].Metric), bits(Ref.Metric)) << I;
  }
}

} // namespace
} // namespace locus
