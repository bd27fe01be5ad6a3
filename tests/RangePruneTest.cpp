//===- RangePruneTest.cpp - Range-driven pre-materialization pruning -----===//
///
/// \file
/// End-to-end tests of the legality oracle's dependent-range checks: on a
/// space with a dependent range (tf = poweroftwo(2..tile)) the oracle
/// proves points invalid before materialization, counts them in
/// PrunedStaticByRange — and, the invariant everything hangs
/// on, changes nothing observable about the search: per-step trajectory,
/// best point, metrics, and the on-disk journal are bit-identical to a
/// prune-off run, for every built-in searcher.
///
//===----------------------------------------------------------------------===//

#include "TestFiles.h"

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

const char *DependentRangeProgram = R"(
Search {
  buildcmd = "make";
  runcmd = "./matmul";
}

CodeReg matmul {
  tile = poweroftwo(2..8);
  tf = poweroftwo(2..tile);
  RoseLocus.Tiling(loop="0", factor=tile);
}
)";

using test::slurp;
using test::TempFile;

driver::SearchWorkflowResult runDependentRange(const std::string &Searcher,
                                               bool StaticPrune,
                                               const std::string &Journal) {
  auto LP = lang::parseLocusProgram(DependentRangeProgram);
  auto CP = cir::parseProgram(workloads::dgemmSource(16, 16, 16));
  if (!LP.ok() || !CP.ok()) {
    ADD_FAILURE() << (LP.ok() ? CP.message() : LP.message());
    return {};
  }
  OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 24;
  Opts.Seed = 7;
  Opts.SearcherName = Searcher;
  Opts.StaticPrune = StaticPrune;
  Opts.JournalPath = Journal;
  Orchestrator Orch(**LP, **CP, Opts);
  auto R = Orch.runSearch();
  if (!R.ok()) {
    ADD_FAILURE() << R.message();
    return {};
  }
  return std::move(*R);
}

class RangePrune : public ::testing::TestWithParam<const char *> {};

/// The acceptance anchor: a dependent-range tile space prunes by symbolic
/// range resolution (nonzero PrunedStaticByRange), and the prune-on run is
/// indistinguishable from the prune-off run — same trajectory, same best
/// point and metric, byte-identical journal.
TEST_P(RangePrune, PrunesByRangeWithoutChangingAnything) {
  const std::string Searcher = GetParam();
  TempFile JOn("range_prune_on_" + Searcher + ".rlog");
  TempFile JOff("range_prune_off_" + Searcher + ".rlog");
  driver::SearchWorkflowResult On =
      runDependentRange(Searcher, /*StaticPrune=*/true, JOn.Path);
  driver::SearchWorkflowResult Off =
      runDependentRange(Searcher, /*StaticPrune=*/false, JOff.Path);

  // The symbolic resolver actually fired, and only when pruning is on.
  EXPECT_GT(On.Search.PrunedStaticByRange, 0);
  EXPECT_LE(On.Search.PrunedStaticByRange, On.Search.PrunedStatic);
  EXPECT_EQ(Off.Search.PrunedStatic, 0);
  EXPECT_EQ(Off.Search.PrunedStaticByRange, 0);

  // Bit-identical trajectory.
  EXPECT_EQ(On.Search.Evaluations, Off.Search.Evaluations);
  EXPECT_EQ(On.Search.InvalidPoints, Off.Search.InvalidPoints);
  ASSERT_EQ(On.Search.History.size(), Off.Search.History.size());
  for (size_t I = 0; I < On.Search.History.size(); ++I) {
    EXPECT_EQ(On.Search.History[I].P.key(), Off.Search.History[I].P.key())
        << Searcher << " diverged at step " << I;
    EXPECT_EQ(On.Search.History[I].Valid, Off.Search.History[I].Valid);
    if (On.Search.History[I].Valid) {
      EXPECT_DOUBLE_EQ(On.Search.History[I].Metric,
                       Off.Search.History[I].Metric);
    }
  }
  EXPECT_EQ(search::serializePoint(On.Search.Best),
            search::serializePoint(Off.Search.Best));
  EXPECT_DOUBLE_EQ(On.Search.BestMetric, Off.Search.BestMetric);

  // Byte-identical journal: the pruned failure records carry the exact
  // failure kind and wording the interpreter would have produced.
  std::string BytesOn = slurp(JOn.Path);
  std::string BytesOff = slurp(JOff.Path);
  ASSERT_FALSE(BytesOn.empty());
  EXPECT_EQ(BytesOn, BytesOff) << Searcher << ": journals diverged";
}

INSTANTIATE_TEST_SUITE_P(AllSearchers, RangePrune,
                         ::testing::Values("exhaustive", "random", "hillclimb",
                                           "de", "bandit", "tpe"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

/// The pruned record's Detail matches the interpreter's range-violation
/// wording exactly (the journal-equality anchor above depends on it).
TEST(RangePruneDetail, FailureWordingMatchesTheInterpreter) {
  TempFile J("range_prune_detail.rlog");
  driver::SearchWorkflowResult R =
      runDependentRange("exhaustive", /*StaticPrune=*/true, J.Path);
  ASSERT_GT(R.Search.PrunedStaticByRange, 0);
  int RangeDetails = 0;
  for (const auto &Rec : R.Search.History)
    if (!Rec.Valid && Rec.Detail.find("violates range") != std::string::npos)
      ++RangeDetails;
  // tile in {2,4,8} x tf in {2,4,8}: tf=4>2, tf=8>2, tf=8>4 violate.
  EXPECT_EQ(RangeDetails, 3);
  EXPECT_EQ(R.Search.PrunedStaticByRange, 3);
}

/// Exhaustive ground truth on the full 9-point space: exactly the three
/// tf > tile combinations are pruned, all three by range resolution.
TEST(RangePruneDetail, ExhaustiveCountsMatchTheSpace) {
  TempFile J("range_prune_counts.rlog");
  driver::SearchWorkflowResult R =
      runDependentRange("exhaustive", /*StaticPrune=*/true, J.Path);
  EXPECT_EQ(R.Search.Evaluations, 9);
  EXPECT_EQ(R.Search.PrunedStatic, 3);
  EXPECT_EQ(R.Search.PrunedStaticByRange, 3);
  EXPECT_EQ(R.Search.failures(search::FailureKind::InvalidPoint), 3);
  EXPECT_TRUE(R.Search.Found);
}

} // namespace
} // namespace locus
