//===- RangePruneTest.cpp - Range-driven pre-materialization pruning -----===//
///
/// \file
/// End-to-end tests of the legality oracle's dependent-range checks: on a
/// space with a dependent range (tf = poweroftwo(2..tile)) the oracle
/// proves points invalid before materialization, counts them in
/// PrunedStaticByRange, and records them with the interpreter's wording.
/// That pruning changes no trajectory or journal byte is a row of the
/// Anchors suite.
///
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using driver::Orchestrator;
using driver::OrchestratorOptions;

/// Exhaustive search, with pruning, of the dependent-range space.
driver::SearchWorkflowResult runExhaustive() {
  auto LP = lang::parseLocusProgram(test::DependentRangeLocus);
  auto CP = cir::parseProgram(workloads::dgemmSource(16, 16, 16));
  if (!LP.ok() || !CP.ok()) {
    ADD_FAILURE() << (LP.ok() ? CP.message() : LP.message());
    return {};
  }
  OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 24;
  Opts.Seed = 7;
  Opts.SearcherName = "exhaustive";
  Orchestrator Orch(**LP, **CP, Opts);
  auto R = Orch.runSearch();
  if (!R.ok()) {
    ADD_FAILURE() << R.message();
    return {};
  }
  return std::move(*R);
}

/// The pruned record's Detail matches the interpreter's range-violation
/// wording exactly (the Anchors suite's journal equality depends on it).
TEST(RangePruneDetail, FailureWordingMatchesTheInterpreter) {
  driver::SearchWorkflowResult R = runExhaustive();
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
  driver::SearchWorkflowResult R = runExhaustive();
  EXPECT_EQ(R.Search.Evaluations, 9);
  EXPECT_EQ(R.Search.PrunedStatic, 3);
  EXPECT_EQ(R.Search.PrunedStaticByRange, 3);
  EXPECT_EQ(R.Search.failures(search::FailureKind::InvalidPoint), 3);
  EXPECT_TRUE(R.Search.Found);
}

} // namespace
} // namespace locus
