//===- StaticPruneTest.cpp - Static legality oracle end-to-end tests ----------===//
///
/// \file
/// Exercises the pre-evaluation pruning pipeline: plan extraction during
/// extractSpace, LegalityOracle classification inside the search loop, and
/// the invariant the oracle must uphold — pruning changes how much a search
/// costs, never what it finds. Illegal transformations are not pruned: the
/// objective reports them when applyPoint materializes the point, before
/// any simulation.
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "src/cir/Parser.h"
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

driver::SearchWorkflowResult runFig7(bool StaticPrune) {
  auto LP = parseLocusOrDie(workloads::dgemmLocusFig7(16));
  auto CP = parseCOrDie(workloads::dgemmSource(32, 32, 32));
  OrchestratorOptions Opts = tinyOptions();
  Opts.MaxEvaluations = 40;
  Opts.StaticPrune = StaticPrune;
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  if (!R.ok()) {
    ADD_FAILURE() << R.message();
    return {};
  }
  return std::move(*R);
}

/// The Fig. 7 program has dependent ranges (tileI_2 = poweroftwo(2..tileI))
/// whose static extremes exceed the dependent bound for most outer values,
/// so the samplers regularly propose provably-invalid points. The oracle
/// must prune some of them, sparing the objective those calls, and must not
/// change the search trajectory.
TEST(StaticPrune, Fig7PrunesWithoutChangingTheOutcome) {
  driver::SearchWorkflowResult On = runFig7(true);
  driver::SearchWorkflowResult Off = runFig7(false);

  // The prune actually fired, and only when enabled.
  EXPECT_GT(On.Search.PrunedStatic, 0);
  EXPECT_EQ(Off.Search.PrunedStatic, 0);

  // Objective invocations strictly decrease: every evaluation in the Off
  // run invoked the evaluator; in the On run PrunedStatic of them did not.
  EXPECT_LT(On.Search.Evaluations - On.Search.PrunedStatic,
            Off.Search.Evaluations);

  // Identical trajectory: same budget consumed, same per-step outcomes,
  // same winner. A pruned point flows through the searcher exactly like an
  // evaluated failure.
  EXPECT_EQ(On.Search.Evaluations, Off.Search.Evaluations);
  EXPECT_EQ(On.Search.InvalidPoints, Off.Search.InvalidPoints);
  ASSERT_EQ(On.Search.History.size(), Off.Search.History.size());
  for (size_t I = 0; I < On.Search.History.size(); ++I) {
    EXPECT_EQ(On.Search.History[I].P.key(), Off.Search.History[I].P.key())
        << "trajectory diverged at step " << I;
    EXPECT_EQ(On.Search.History[I].Valid, Off.Search.History[I].Valid);
    if (On.Search.History[I].Valid) {
      EXPECT_DOUBLE_EQ(On.Search.History[I].Metric,
                       Off.Search.History[I].Metric);
    }
  }
  EXPECT_EQ(search::serializePoint(On.Search.Best),
            search::serializePoint(Off.Search.Best));
  EXPECT_DOUBLE_EQ(On.Search.BestMetric, Off.Search.BestMetric);
}

/// A permutation parameter fed to Interchange over a loop nest with a (<,>)
/// dependence: the swapped order is illegal. applyPoint reports it with the
/// module's diagnostic, and the evaluator never runs the swapped variant.
TEST(StaticPrune, IllegalInterchangeFailsBeforeSimulation) {
  auto CP = parseCOrDie(R"(
double A[64][64];
int main() {
  int i, j;
#pragma @Locus loop=nest
  for (i = 1; i < 64; i++)
    for (j = 0; j < 63; j++)
      A[i][j] = A[i-1][j+1] + 1.0;
}
)");
  auto LP = parseLocusOrDie(R"(
Search {
  buildcmd = "make";
  runcmd = "./nest";
}

CodeReg nest {
  order = permutation([0, 1]);
  RoseLocus.Interchange(order=order);
}
)");
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = "exhaustive";
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();

  // Two points exist: identity (legal, NoOp) and the swap (illegal). Only
  // the identity reached the evaluator (the one cache miss); the swap
  // failed while it was materialized.
  EXPECT_EQ(R->Search.Evaluations, 2);
  EXPECT_EQ(R->Search.PrunedStatic, 0);
  EXPECT_EQ(R->Search.failures(search::FailureKind::TransformIllegal), 1);
  EXPECT_EQ(R->Search.CacheMisses, 1u);
  EXPECT_TRUE(R->Search.Found);

  // The failed record carries the module's located illegality diagnostic.
  bool SawDetail = false;
  for (const auto &Rec : R->Search.History)
    if (!Rec.Valid &&
        Rec.Detail.find("interchange violates a dependence") !=
            std::string::npos)
      SawDetail = true;
  EXPECT_TRUE(SawDetail);
}

/// Dependent integer ranges prune without any module replay: a point with
/// tf > tile violates "tf = poweroftwo(2..tile)" and is rejected from the
/// recorded range check alone.
TEST(StaticPrune, DependentRangeViolationsPruneWithoutReplay) {
  auto CP = parseCOrDie(workloads::dgemmSource(16, 16, 16));
  auto LP = parseLocusOrDie(test::DependentRangeLocus);
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = "exhaustive";
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();

  // Space is tile in {2,4,8} x tf in {2,4,8}: exactly three combinations
  // violate tf <= tile (tf=4>2, tf=8>2, tf=8>4), all provable statically.
  EXPECT_EQ(R->Search.PrunedStatic, 3);
  EXPECT_EQ(R->Search.failures(search::FailureKind::InvalidPoint), 3);
  EXPECT_TRUE(R->Search.Found);
}

/// A range check recorded after a module call assumes the call applied.
/// Here the interchange is illegal at every point, so the concrete run
/// fails each point at the interchange, while the oracle proves the six
/// points with tf > tile invalid from the later range check. The oracle
/// does not replay the module, so those six records name the range
/// violation instead of the interchange (DESIGN.md, static legality
/// oracle). Validity, metrics and the trajectory stay identical.
TEST(StaticPrune, RangePruneAfterAFailingModuleKeepsTheTrajectory) {
  auto run = [&](bool StaticPrune) {
    auto CP = parseCOrDie(R"(
double A[64][64];
int main() {
  int i, j;
#pragma @Locus loop=nest
  for (i = 1; i < 64; i++)
    for (j = 0; j < 63; j++)
      A[i][j] = A[i-1][j+1] + 1.0;
}
)");
    auto LP = parseLocusOrDie(R"(
Search {
  buildcmd = "make";
  runcmd = "./nest";
}

CodeReg nest {
  RoseLocus.Interchange(order=[1, 0]);
  tile = poweroftwo(2..16);
  tf = poweroftwo(2..tile);
  RoseLocus.Tiling(loop="0", factor=tile);
}
)");
    OrchestratorOptions Opts = tinyOptions();
    Opts.SearcherName = "exhaustive";
    Opts.StaticPrune = StaticPrune;
    Orchestrator Orch(*LP, *CP, Opts);
    auto R = Orch.runSearch();
    if (!R.ok()) {
      ADD_FAILURE() << R.message();
      return search::SearchResult{};
    }
    return std::move(R->Search);
  };
  search::SearchResult On = run(true);
  search::SearchResult Off = run(false);
  EXPECT_EQ(On.PrunedStatic, 6);
  EXPECT_EQ(Off.PrunedStatic, 0);
  EXPECT_EQ(On.InvalidPoints, 16);
  EXPECT_EQ(Off.InvalidPoints, 16);
  EXPECT_EQ(Off.failures(search::FailureKind::TransformIllegal), 16);
  EXPECT_EQ(On.CacheMisses + Off.CacheMisses, 0u); // nothing simulated
  ASSERT_EQ(On.History.size(), Off.History.size());
  for (size_t I = 0; I < On.History.size(); ++I) {
    EXPECT_EQ(On.History[I].P.key(), Off.History[I].P.key());
    EXPECT_EQ(On.History[I].Valid, Off.History[I].Valid);
  }
  EXPECT_FALSE(On.Found);
  EXPECT_FALSE(Off.Found);
}

//===----------------------------------------------------------------------===//
// Racy parallelizations fail before simulation
//===----------------------------------------------------------------------===//

/// The race detector gates Pragma.OMPFor: a point that parallelizes the
/// racy loop fails as TransformIllegal while it is materialized and never
/// reaches the evaluator, and the search lands on the exact same best point
/// as a search over the hand-pruned space (racy choice deleted by hand).
TEST(StaticPrune, RacyParallelizationFailsBeforeSimulation) {
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = "exhaustive";

  auto CP1 = parseCOrDie(test::TwoLoopSource);
  auto LP1 = parseLocusOrDie(test::ompForChoice("\"0\", \"1\""));
  Orchestrator Full(*LP1, *CP1, Opts);
  auto RFull = Full.runSearch();
  ASSERT_TRUE(RFull.ok()) << RFull.message();

  // Two points; exactly the racy one fails, before evaluation: only the
  // safe point is simulated (the one cache miss).
  EXPECT_EQ(RFull->Search.Evaluations, 2);
  EXPECT_EQ(RFull->Search.PrunedStatic, 0);
  EXPECT_EQ(RFull->Search.failures(search::FailureKind::TransformIllegal), 1);
  EXPECT_EQ(RFull->Search.CacheMisses, 1u);
  EXPECT_TRUE(RFull->Search.Found);

  // The failed record carries the race witness.
  bool SawWitness = false;
  for (const auto &Rec : RFull->Search.History)
    if (!Rec.Valid && Rec.Detail.find("racy") != std::string::npos &&
        Rec.Detail.find("'V'") != std::string::npos)
      SawWitness = true;
  EXPECT_TRUE(SawWitness);

  // Hand-pruned space: the racy choice removed from the enum. Identical
  // best point, identical best metric.
  auto CP2 = parseCOrDie(test::TwoLoopSource);
  auto LP2 = parseLocusOrDie(test::ompForChoice("\"0\""));
  Orchestrator Hand(*LP2, *CP2, Opts);
  auto RHand = Hand.runSearch();
  ASSERT_TRUE(RHand.ok()) << RHand.message();
  EXPECT_EQ(RHand->Search.Evaluations, 1);
  EXPECT_EQ(RHand->Search.PrunedStatic, 0);
  EXPECT_EQ(search::serializePoint(RFull->Search.Best),
            search::serializePoint(RHand->Search.Best));
  EXPECT_DOUBLE_EQ(RFull->Search.BestMetric, RHand->Search.BestMetric);
}

/// TrustParallel threads end to end: with the override the racy point is
/// materialized (simulator still executes it sequentially, so the search
/// simply sees a second valid-but-unimproved variant).
TEST(StaticPrune, TrustParallelDisablesTheRaceGate) {
  auto CP = parseCOrDie(test::TwoLoopSource);
  auto LP = parseLocusOrDie(test::ompForChoice("\"0\", \"1\""));
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = "exhaustive";
  Opts.TrustParallel = true;
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Search.Evaluations, 2);
  EXPECT_EQ(R->Search.PrunedStatic, 0);
  EXPECT_EQ(R->Search.failures(search::FailureKind::TransformIllegal), 0);
  EXPECT_TRUE(R->Search.Found);
}

} // namespace
} // namespace locus
