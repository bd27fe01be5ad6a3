//===- ExhaustionTest.cpp - A search stops when its space is exhausted ------===//
//
// Once every point of a finite space has been assessed, every further
// proposal is an exact duplicate: it spends no budget, writes no record and
// leaves the History alone. The evaluation driver therefore reports the
// budget spent, and the searcher stops proposing. These tests run all six
// searchers, serially and with four pool workers, on a 24-point space with
// OR-guarded parameters and a budget above its size, and check that
//
//   - the History, the journal payloads, the best point and ProjectionHits
//     equal tests/data/exhaustion_golden.txt, written by a build without
//     the stop (so the stop changes none of them);
//   - a search that assessed the whole space then stopped: without the
//     stop, a search that cannot spend its budget ends only at the stale
//     limit, after 4 x budget consecutive duplicates (hill climbing and
//     differential evolution move locally and may end there without
//     covering the space, with or without the stop);
//
// that a search resumed from a prefix of its records stops where the
// uninterrupted one did, and that searches over a float range, whose
// nominal size is below their budget, run exactly as they did without the
// stop.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"

#include "src/search/Journal.h"
#include "src/search/Search.h"

#include <gtest/gtest.h>

#include <cmath>

namespace locus {
namespace {

using namespace search;

constexpr int Budget = 60;

const char *const Searchers[] = {"exhaustive", "random", "hillclimb",
                                 "de",         "bandit", "tpe"};

/// sel picks arm a (reads x) or arm b (reads y); flag is read by both.
/// 2 x 3 x 2 x 2 = 24 points, 8 + 6 = 14 distinct active projections.
Space guardedSpace() {
  Space S;
  ParamDef Sel;
  Sel.Id = "sel";
  Sel.Label = "or:sel";
  Sel.Kind = ParamKind::Enum;
  Sel.Options = {"a", "b"};
  ParamDef X;
  X.Id = "x";
  X.Label = "x";
  X.Kind = ParamKind::IntRange;
  X.Min = 1;
  X.Max = 3;
  X.Guards = {{0, 0}}; // sel, arm a
  ParamDef Y;
  Y.Id = "y";
  Y.Label = "y";
  Y.Kind = ParamKind::Pow2;
  Y.Min = 2;
  Y.Max = 4;
  Y.Guards = {{0, 1}}; // sel, arm b
  ParamDef Flag;
  Flag.Id = "flag";
  Flag.Label = "opt:flag";
  Flag.Kind = ParamKind::Bool;
  S.Params = {Sel, X, Y, Flag};
  return S;
}

/// Reads only the active parameters, as a materialized variant would; one
/// projection fails.
EvalOutcome guardedObjective(const Point &P) {
  int64_t Flag = P.getInt("flag");
  if (P.getInt("sel") == 0)
    return EvalOutcome::success(
        10.0 + static_cast<double>(std::abs(P.getInt("x") - 2)) +
        static_cast<double>(Flag));
  int64_t Y = P.getInt("y");
  if (Y == 4 && Flag == 1)
    return EvalOutcome::fail(FailureKind::TransformIllegal, "y=4 with flag");
  return EvalOutcome::success(12.0 - static_cast<double>(Y) / 2 +
                              2.0 * static_cast<double>(Flag));
}

/// One search's golden lines: each History record with its journal
/// payload, then the counters the stop must leave alone.
std::vector<std::string> traceOf(const std::string &Name,
                                 const SearchResult &R,
                                 const std::vector<std::string> &Journal) {
  std::vector<std::string> Lines;
  for (size_t I = 0; I < R.History.size(); ++I)
    Lines.push_back(Name + "\t" + std::to_string(I) + "\t" +
                    R.History[I].P.key() + "\t" +
                    (I < Journal.size() ? test::escapeField(Journal[I])
                                        : "(no journal record)"));
  Lines.push_back(Name + "\tsummary\tevaluations=" +
                  std::to_string(R.Evaluations) + "\tjournaled=" +
                  std::to_string(Journal.size()) + "\tprojection_hits=" +
                  std::to_string(R.ProjectionHits) + "\tinvalid=" +
                  std::to_string(R.InvalidPoints) + "\tbest=" +
                  (R.Found ? R.Best.key() : "none"));
  return Lines;
}

class Exhaustion : public ::testing::TestWithParam<int> {};

TEST_P(Exhaustion, SearchStopsOnceTheSpaceIsCoveredAndKeepsItsTrace) {
  const int Jobs = GetParam();
  Space S = guardedSpace();
  std::vector<std::string> Lines;
  int Exhausted = 0;
  for (const char *Name : Searchers) {
    LambdaObjective Obj(guardedObjective, /*ThreadSafe=*/true);
    std::vector<std::string> Journal;
    SearchOptions Opts;
    Opts.MaxEvaluations = Budget;
    Opts.Seed = 7;
    Opts.Jobs = Jobs;
    Opts.OnFreshEval = [&Journal](const EvalRecord &Rec) {
      Journal.push_back(SearchJournal::encodeRecord(Rec));
    };
    SearchResult R = makeSearcher(Name)->search(S, Obj, Opts);
    std::vector<std::string> Trace = traceOf(Name, R, Journal);
    Lines.insert(Lines.end(), Trace.begin(), Trace.end());
    if (test::Golden::rewriting())
      continue;
    std::string What = std::string(Name) + " --jobs " + std::to_string(Jobs);
    bool Covered = R.History.size() == S.fullSize();
    Exhausted += Covered;
    EXPECT_EQ(R.DuplicateHits < 4 * Budget, Covered)
        << What << ": " << R.DuplicateHits << " duplicates";
    EXPECT_FALSE(R.Stopped) << What;
  }
  if (!test::Golden::rewriting()) {
    EXPECT_GE(Exhausted, 4) << "too few searches reach the stop";
  }
  test::Golden G("exhaustion_golden.txt");
  if (test::Golden::rewriting()) {
    if (Jobs == 1)
      G.rewrite(Lines);
    GTEST_SKIP() << "rewrote " << G.path() << " from the serial run";
  }
  G.expectRecords(Lines, 0, G.records().size(),
                  "--jobs " + std::to_string(Jobs));
}

TEST_P(Exhaustion, ResumedSearchStopsWhereTheUninterruptedOneDid) {
  // Replayed records enter Seen as the resumed search consumes them, so it
  // covers the space, and stops, at the same proposal.
  Space S = guardedSpace();
  for (const char *Name : Searchers) {
    SearchOptions Opts;
    Opts.MaxEvaluations = Budget;
    Opts.Seed = 7;
    Opts.Jobs = GetParam();
    LambdaObjective Obj(guardedObjective, /*ThreadSafe=*/true);
    SearchResult Ref = makeSearcher(Name)->search(S, Obj, Opts);
    ASSERT_GT(Ref.History.size(), 10u) << Name;
    Opts.Replay.assign(Ref.History.begin(), Ref.History.begin() + 10);
    SearchResult R = makeSearcher(Name)->search(S, Obj, Opts);
    EXPECT_EQ(R.ReplayedEvaluations, 10) << Name;
    ASSERT_EQ(R.History.size(), Ref.History.size()) << Name;
    for (size_t I = 0; I < R.History.size(); ++I)
      EXPECT_EQ(R.History[I].P.key(), Ref.History[I].P.key()) << Name << I;
    EXPECT_EQ(R.DuplicateHits, Ref.DuplicateHits) << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, Exhaustion, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int> &I) {
                           return "jobs" + std::to_string(I.param);
                         });

TEST(ExhaustionFloat, FloatSpaceRunsAsWithoutTheStop) {
  // A float range counts a nominal 1000 values, below this budget: a stop
  // that trusted that count would end these searches at 1000 points.
  Space S;
  ParamDef F;
  F.Id = "f";
  F.Label = "f";
  F.Kind = ParamKind::FloatRange;
  F.FMin = 0;
  F.FMax = 1;
  S.Params = {F};
  std::vector<std::string> Lines;
  for (const char *Name : {"random", "hillclimb", "de", "bandit", "tpe"}) {
    LambdaObjective Obj([](const Point &P) {
      return EvalOutcome::success(std::abs(P.getFloat("f") - 0.3));
    });
    SearchOptions Opts;
    Opts.MaxEvaluations = static_cast<int>(S.fullSize()) + 10;
    Opts.Seed = 11;
    SearchResult R = makeSearcher(Name)->search(S, Obj, Opts);
    Lines.push_back(std::string(Name) + "\tfloat\tevaluations=" +
                    std::to_string(R.Evaluations) + "\tbest=" +
                    R.Best.key());
  }
  test::expectGolden("exhaustion_float_golden.txt", Lines);
}

} // namespace
} // namespace locus
