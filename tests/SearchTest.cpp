//===- SearchTest.cpp - Search module tests ------------------------------------===//

#include "src/search/Search.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <ostream>

namespace locus {
namespace {

using namespace search;

Space mixedSpace() {
  Space S;
  ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64; // 2..64: 6 values
  S.Params.push_back(A);
  ParamDef B;
  B.Id = "b";
  B.Label = "b";
  B.Kind = ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);
  ParamDef C;
  C.Id = "c";
  C.Label = "c";
  C.Kind = ParamKind::Enum;
  C.Options = {"x", "y", "z"};
  S.Params.push_back(C);
  ParamDef D;
  D.Id = "d";
  D.Label = "opt:line1";
  D.Kind = ParamKind::Bool;
  S.Params.push_back(D);
  return S;
}

/// Separable objective with a unique optimum: a=16, b=7, c=1, d=1.
EvalOutcome synthetic(const Point &P) {
  double A = static_cast<double>(P.getInt("a"));
  double B = static_cast<double>(P.getInt("b"));
  double C = static_cast<double>(P.getInt("c"));
  double D = static_cast<double>(P.getInt("d"));
  return EvalOutcome::success(std::abs(std::log2(A) - 4.0) * 3 +
                              std::abs(B - 7.0) + std::abs(C - 1.0) * 5 +
                              (1.0 - D) * 2);
}

TEST(Space, CardinalitiesAndSizes) {
  Space S = mixedSpace();
  EXPECT_EQ(S.Params[0].cardinality(), 6u);
  EXPECT_EQ(S.Params[1].cardinality(), 16u);
  EXPECT_EQ(S.Params[2].cardinality(), 3u);
  EXPECT_EQ(S.Params[3].cardinality(), 2u);
  EXPECT_EQ(S.fullSize(), 6u * 16 * 3 * 2);
  // The Bool is an "opt:" selector and is excluded from the value count.
  EXPECT_EQ(S.valueSize(), 6u * 16 * 3);
}

TEST(Space, PermutationCardinality) {
  ParamDef P;
  P.Kind = ParamKind::Permutation;
  P.PermSize = 4;
  EXPECT_EQ(P.cardinality(), 24u);
}

TEST(Space, PointKeyIsCanonical) {
  Point P1, P2;
  P1.set("a", int64_t(4));
  P1.set("b", std::string("x"));
  P2.set("b", std::string("x"));
  P2.set("a", int64_t(4));
  EXPECT_EQ(P1.key(), P2.key());
  P2.set("a", int64_t(8));
  EXPECT_NE(P1.key(), P2.key());
}

TEST(Exhaustive, FindsGlobalOptimum) {
  Space S = mixedSpace();
  LambdaObjective Obj(synthetic);
  SearchOptions Opts;
  Opts.MaxEvaluations = 1000; // larger than the space
  SearchResult R = makeExhaustiveSearcher()->search(S, Obj, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.BestMetric, 0.0);
  EXPECT_EQ(R.Best.getInt("a"), 16);
  EXPECT_EQ(R.Best.getInt("b"), 7);
  EXPECT_EQ(R.Best.getInt("c"), 1);
  EXPECT_EQ(R.Best.getInt("d"), 1);
  EXPECT_EQ(R.Evaluations, static_cast<int>(S.fullSize()));
}

struct NamedSearcherCase {
  const char *Name;
  double QualityBound; ///< best metric must be <= bound within the budget
};

// Print by value: gtest's default dumps the raw bytes, pointer included, and
// ctest names each case after that dump, so the name would change per build.
void PrintTo(const NamedSearcherCase &C, std::ostream *OS) {
  *OS << C.Name << " (bound " << C.QualityBound << ")";
}

class SearcherQuality : public ::testing::TestWithParam<NamedSearcherCase> {};

TEST_P(SearcherQuality, FindsGoodPointWithinBudget) {
  Space S = mixedSpace();
  LambdaObjective Obj(synthetic);
  SearchOptions Opts;
  Opts.MaxEvaluations = 120;
  Opts.Seed = 7;
  auto Searcher = makeSearcher(GetParam().Name);
  ASSERT_NE(Searcher, nullptr);
  SearchResult R = Searcher->search(S, Obj, Opts);
  ASSERT_TRUE(R.Found) << GetParam().Name;
  EXPECT_LE(R.BestMetric, GetParam().QualityBound) << GetParam().Name;
  EXPECT_LE(R.Evaluations, Opts.MaxEvaluations);
}

INSTANTIATE_TEST_SUITE_P(
    AllSearchers, SearcherQuality,
    // Random's bound is loose: ~2% of the 576 points score <= 3, so a
    // 120-sample uniform run misses that set for some seed streams (the
    // bias-free bounded sampler draws a different stream than the old
    // modulo reduction did).
    ::testing::Values(NamedSearcherCase{"random", 4.0},
                      NamedSearcherCase{"hillclimb", 1.0},
                      NamedSearcherCase{"de", 2.0},
                      NamedSearcherCase{"bandit", 1.0},
                      NamedSearcherCase{"tpe", 2.0}),
    [](const ::testing::TestParamInfo<NamedSearcherCase> &Info) {
      return Info.param.Name;
    });

TEST(Searchers, DeterministicUnderSeed) {
  Space S = mixedSpace();
  LambdaObjective Obj(synthetic);
  SearchOptions Opts;
  Opts.MaxEvaluations = 60;
  Opts.Seed = 99;
  SearchResult R1 = makeBanditSearcher()->search(S, Obj, Opts);
  SearchResult R2 = makeBanditSearcher()->search(S, Obj, Opts);
  EXPECT_EQ(R1.BestMetric, R2.BestMetric);
  EXPECT_EQ(R1.Best.key(), R2.Best.key());
  EXPECT_EQ(R1.Evaluations, R2.Evaluations);
}

TEST(Searchers, InvalidRegionsAreSkipped) {
  Space S = mixedSpace();
  // Half the space (d == 0) is invalid.
  LambdaObjective Obj([](const Point &P) {
    if (P.getInt("d") == 0)
      return EvalOutcome::fail(FailureKind::InvalidPoint);
    return synthetic(P);
  });
  SearchOptions Opts;
  Opts.MaxEvaluations = 150;
  for (const char *Name : {"random", "bandit", "tpe", "hillclimb"}) {
    SearchResult R = makeSearcher(Name)->search(S, Obj, Opts);
    ASSERT_TRUE(R.Found) << Name;
    EXPECT_GT(R.InvalidPoints, 0) << Name;
    EXPECT_EQ(R.Best.getInt("d"), 1) << Name;
  }
}

TEST(Searchers, DeduplicationAvoidsReassessment) {
  // Tiny space: any budget beyond fullSize must come from duplicates that
  // are skipped, not re-evaluated (the paper's OpenTuner note).
  Space S;
  ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = ParamKind::IntRange;
  A.Min = 0;
  A.Max = 3;
  S.Params.push_back(A);
  int Calls = 0;
  LambdaObjective Obj([&](const Point &P) {
    ++Calls;
    return EvalOutcome::success(static_cast<double>(P.getInt("a")));
  });
  SearchOptions Opts;
  Opts.MaxEvaluations = 100;
  SearchResult R = makeBanditSearcher()->search(S, Obj, Opts);
  // The search covers the space and stops there: one objective call per
  // point, however far the budget reaches beyond it.
  EXPECT_EQ(Calls, 4);
  EXPECT_EQ(R.Evaluations, static_cast<int>(S.fullSize()));
  EXPECT_GT(R.DuplicateHits, 0);
  EXPECT_EQ(R.BestMetric, 0.0);
}

TEST(Searchers, PermutationSpace) {
  Space S;
  ParamDef P;
  P.Id = "perm";
  P.Label = "perm";
  P.Kind = ParamKind::Permutation;
  P.PermSize = 4;
  S.Params.push_back(P);
  // Optimum: identity permutation.
  LambdaObjective Obj([](const Point &Pt) {
    const auto &Perm = Pt.getPerm("perm");
    double Cost = 0;
    for (size_t I = 0; I < Perm.size(); ++I)
      Cost += std::abs(static_cast<double>(Perm[I]) - static_cast<double>(I));
    return EvalOutcome::success(Cost);
  });
  SearchOptions Opts;
  Opts.MaxEvaluations = 24;
  SearchResult R = makeExhaustiveSearcher()->search(S, Obj, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(R.BestMetric, 0.0);
  SearchResult R2 = makeBanditSearcher()->search(S, Obj, Opts);
  ASSERT_TRUE(R2.Found);
  EXPECT_LE(R2.BestMetric, 4.0);
}

TEST(Searchers, EnumerateValuesShapes) {
  ParamDef P;
  P.Kind = ParamKind::Pow2;
  P.Min = 2;
  P.Max = 512;
  EXPECT_EQ(enumerateValues(P).size(), 9u); // the Fig. 7 per-tile count
  P.Kind = ParamKind::FloatRange;
  P.FMin = 0;
  P.FMax = 1;
  EXPECT_EQ(enumerateValues(P).size(), 16u);
  P.Kind = ParamKind::LogInt;
  P.Min = 1;
  P.Max = 100;
  auto Values = enumerateValues(P);
  ASSERT_GE(Values.size(), 5u);
  for (size_t I = 1; I < Values.size(); ++I)
    EXPECT_GT(std::get<int64_t>(Values[I]), std::get<int64_t>(Values[I - 1]));
}

//===----------------------------------------------------------------------===//
// Static pre-evaluation filter
//===----------------------------------------------------------------------===//

/// Objective mirroring what the legality oracle guarantees at the driver
/// level: points with b < 4 are invalid. The filter proves a SUBSET of them
/// (b < 2) statically; the rest still fail through the objective.
struct FilterHarness {
  int Invocations = 0;
  SearchResult run(const std::string &Searcher, bool WithFilter) {
    Invocations = 0;
    Space S = mixedSpace();
    LambdaObjective Obj([this](const Point &P) {
      ++Invocations;
      if (P.getInt("b") < 4)
        return EvalOutcome::fail(FailureKind::InvalidPoint, "b out of range");
      return synthetic(P);
    });
    SearchOptions Opts;
    Opts.MaxEvaluations = 200;
    Opts.Seed = 11;
    if (WithFilter)
      Opts.StaticFilter = [](const Point &P) -> std::optional<EvalOutcome> {
        if (P.getInt("b") < 2)
          return EvalOutcome::fail(FailureKind::InvalidPoint, "b out of range");
        return std::nullopt;
      };
    return makeSearcher(Searcher)->search(S, Obj, Opts);
  }
};

TEST(Search, StaticFilterShortCircuitsTheObjective) {
  for (const char *Name : {"random", "bandit", "exhaustive"}) {
    FilterHarness H;
    SearchResult Off = H.run(Name, false);
    int InvocationsOff = H.Invocations;
    SearchResult On = H.run(Name, true);
    int InvocationsOn = H.Invocations;

    // The filter fired, the objective ran strictly fewer times, and the
    // budget accounting is unchanged.
    EXPECT_GT(On.PrunedStatic, 0) << Name;
    EXPECT_EQ(Off.PrunedStatic, 0) << Name;
    EXPECT_LT(InvocationsOn, InvocationsOff) << Name;
    EXPECT_EQ(InvocationsOn, On.Evaluations - On.PrunedStatic) << Name;
    EXPECT_EQ(On.Evaluations, Off.Evaluations) << Name;
    EXPECT_EQ(On.InvalidPoints, Off.InvalidPoints) << Name;

    // Same trajectory, same winner: a pruned point flows through the
    // searcher exactly like an evaluated failure.
    ASSERT_EQ(On.History.size(), Off.History.size()) << Name;
    for (size_t I = 0; I < On.History.size(); ++I) {
      EXPECT_EQ(On.History[I].P.key(), Off.History[I].P.key())
          << Name << " diverged at step " << I;
      EXPECT_EQ(On.History[I].Valid, Off.History[I].Valid) << Name;
    }
    ASSERT_TRUE(On.Found) << Name;
    ASSERT_TRUE(Off.Found) << Name;
    EXPECT_EQ(On.Best.key(), Off.Best.key()) << Name;
    EXPECT_DOUBLE_EQ(On.BestMetric, Off.BestMetric) << Name;
  }
}

/// Two arms of a selector `sel`: `x` is read only under arm 0, so the four
/// points that select arm 1 share one active projection.
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
  X.Max = 4;
  X.Guards = {{0, 0}}; // sel, arm 0
  S.Params = {Sel, X};
  return S;
}

TEST(Search, ProjectionRepeatsAreServedUnlessUnstable) {
  // Exhaustive proposes all eight points as one batch, `sel` varying
  // fastest: the first arm-1 point is assessed, and its three repeats take
  // its outcome at commit, or are assessed themselves when it came back
  // MetricUnstable. A replayed arm-1 record serves them the same way.
  Space S = guardedSpace();
  for (int Jobs : {1, 4}) {
    for (bool Unstable : {false, true}) {
      for (bool Replayed : {false, true}) {
        std::string What = "jobs " + std::to_string(Jobs) +
                           (Unstable ? " unstable" : " stable") +
                           (Replayed ? " replayed" : "");
        EvalOutcome ArmB =
            Unstable ? EvalOutcome::fail(FailureKind::MetricUnstable, "flaky")
                     : EvalOutcome::success(100);
        std::atomic<int> Calls{0};
        LambdaObjective Obj(
            [&](const Point &P) {
              ++Calls;
              return P.getInt("sel") == 1
                         ? ArmB
                         : EvalOutcome::success(
                               static_cast<double>(P.getInt("x")));
            },
            /*ThreadSafe=*/true);
        SearchOptions Opts;
        Opts.MaxEvaluations = 8;
        Opts.Jobs = Jobs;
        if (Replayed) {
          EvalRecord Rec;
          Rec.P.set("sel", int64_t{1});
          Rec.P.set("x", int64_t{1});
          Rec.Metric = ArmB.Metric;
          Rec.Valid = ArmB.ok();
          Rec.Failure = ArmB.Failure;
          Rec.Detail = ArmB.Detail;
          Opts.Replay = {Rec};
        }
        SearchResult R = makeSearcher("exhaustive")->search(S, Obj, Opts);

        ASSERT_EQ(R.History.size(), 8u) << What;
        EXPECT_EQ(R.Evaluations, 8) << What;
        EXPECT_EQ(R.ProjectionHits, Unstable ? 0u : 3u) << What;
        int Assessed = (Unstable ? 8 : 5) - (Replayed ? 1 : 0);
        EXPECT_EQ(Calls.load(), Assessed) << What;
        for (const EvalRecord &Rec : R.History) {
          if (Rec.P.getInt("sel") != 1)
            continue;
          EXPECT_EQ(Rec.Failure, ArmB.Failure) << What;
          EXPECT_EQ(Rec.Detail, ArmB.Detail) << What;
          EXPECT_EQ(Rec.Valid, ArmB.ok()) << What;
        }
        ASSERT_TRUE(R.Found) << What;
        EXPECT_EQ(R.Best.getInt("sel"), 0) << What;
        EXPECT_EQ(R.Best.getInt("x"), 1) << What;
      }
    }
  }
}

} // namespace
} // namespace locus
