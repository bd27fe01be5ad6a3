//===- FaultToleranceTest.cpp - Failure taxonomy and fault injection ------===//

#include "src/search/Search.h"
#include "tests/helpers/FaultInjection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

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
  A.Max = 64;
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
  return S;
}

/// Separable objective with a unique optimum: a=16, b=7, c=1.
EvalOutcome synthetic(const Point &P) {
  double A = static_cast<double>(P.getInt("a"));
  double B = static_cast<double>(P.getInt("b"));
  double C = static_cast<double>(P.getInt("c"));
  return EvalOutcome::success(std::abs(std::log2(A) - 4.0) * 3 +
                              std::abs(B - 7.0) + std::abs(C - 1.0) * 5);
}

int sumFailures(const SearchResult &R) {
  int Sum = 0;
  for (int K = 1; K < NumFailureKinds; ++K)
    Sum += R.FailureCounts[static_cast<size_t>(K)];
  return Sum;
}

//===----------------------------------------------------------------------===//
// Taxonomy plumbing
//===----------------------------------------------------------------------===//

TEST(FailureKinds, NamesRoundTrip) {
  for (int I = 0; I < NumFailureKinds; ++I) {
    FailureKind K = static_cast<FailureKind>(I);
    bool Ok = false;
    EXPECT_EQ(parseFailureKind(failureKindName(K), Ok), K);
    EXPECT_TRUE(Ok);
  }
  bool Ok = true;
  parseFailureKind("NotAKind", Ok);
  EXPECT_FALSE(Ok);
}

TEST(FailureKinds, PerKindCountsSumToInvalidPoints) {
  Space S = mixedSpace();
  // Classify deterministically by parameter value: b==0 traps, b==1 has a
  // checksum mismatch, b==2 is an invalid point; the rest are clean.
  LambdaObjective Obj(LambdaObjective::OutcomeFn([](const Point &P) {
    int64_t B = P.getInt("b");
    if (B == 0)
      return EvalOutcome::fail(FailureKind::RuntimeTrap, "trap");
    if (B == 1)
      return EvalOutcome::fail(FailureKind::ChecksumMismatch, "mismatch");
    if (B == 2)
      return EvalOutcome::fail(FailureKind::InvalidPoint, "range");
    return synthetic(P);
  }));
  SearchOptions Opts;
  Opts.MaxEvaluations = 200;
  SearchResult R = makeRandomSearcher()->search(S, Obj, Opts);
  ASSERT_TRUE(R.Found);
  EXPECT_GT(R.failures(FailureKind::RuntimeTrap), 0);
  EXPECT_GT(R.failures(FailureKind::ChecksumMismatch), 0);
  EXPECT_GT(R.failures(FailureKind::InvalidPoint), 0);
  EXPECT_EQ(R.failures(FailureKind::MetricUnstable), 0);
  EXPECT_EQ(sumFailures(R), R.InvalidPoints);
  // History records carry the per-record cause.
  int HistoryFailures = 0;
  for (const EvalRecord &Rec : R.History) {
    EXPECT_EQ(Rec.Valid, Rec.Failure == FailureKind::None);
    if (!Rec.Valid)
      ++HistoryFailures;
  }
  EXPECT_EQ(HistoryFailures, R.InvalidPoints);
}

//===----------------------------------------------------------------------===//
// Fault injection: every searcher survives a 30% failure rate
//===----------------------------------------------------------------------===//

class SearcherFaultSurvival : public ::testing::TestWithParam<const char *> {};

TEST_P(SearcherFaultSurvival, SurvivesMixedInjectedFailures) {
  Space S = mixedSpace();
  LambdaObjective Inner(synthetic);
  FaultInjectionOptions FOpts;
  FOpts.FailureProbability = 0.3;
  FOpts.Seed = 1234;
  FaultInjectingObjective Faulty(Inner, FOpts);

  SearchOptions Opts;
  Opts.MaxEvaluations = 150;
  Opts.Seed = 7;
  auto Searcher = makeSearcher(GetParam());
  ASSERT_NE(Searcher, nullptr);
  SearchResult R = Searcher->search(S, Faulty, Opts);

  // The searcher completed its budget without corrupting its state: counts
  // are consistent and the per-kind breakdown sums to the invalid total.
  EXPECT_LE(R.Evaluations, Opts.MaxEvaluations) << GetParam();
  EXPECT_EQ(static_cast<int>(R.History.size()), R.Evaluations) << GetParam();
  EXPECT_GT(R.InvalidPoints, 0) << GetParam();
  EXPECT_EQ(sumFailures(R), R.InvalidPoints) << GetParam();
  // The clean subspace is 70% of the space; a valid best must exist.
  ASSERT_TRUE(R.Found) << GetParam();
  EXPECT_TRUE(std::isfinite(R.BestMetric)) << GetParam();
  // The winning point itself is clean: injected failures are permanent, so
  // a failed point can never win.
  FailureKind BestKind = Faulty.classify(R.Best);
  EXPECT_EQ(BestKind, FailureKind::None)
      << GetParam() << ": " << failureKindName(BestKind);

  // Determinism survives injection: a second identical run agrees.
  FaultInjectingObjective Faulty2(Inner, FOpts);
  SearchResult R2 = makeSearcher(GetParam())->search(S, Faulty2, Opts);
  EXPECT_EQ(R.Best.key(), R2.Best.key()) << GetParam();
  EXPECT_EQ(R.Evaluations, R2.Evaluations) << GetParam();
  EXPECT_EQ(R.FailureCounts, R2.FailureCounts) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSearchers, SearcherFaultSurvival,
                         ::testing::Values("exhaustive", "random", "hillclimb",
                                           "de", "bandit", "tpe"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST(FaultInjection, BanditAndTpeConvergeOnCleanSubspace) {
  // Small space (6 * 16 = 96 points); compute the exact best clean point,
  // then require the adaptive searchers to find it despite 30% failures.
  Space S;
  ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64;
  S.Params.push_back(A);
  ParamDef B;
  B.Id = "b";
  B.Label = "b";
  B.Kind = ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);

  auto Metric = [](const Point &P) {
    bool Valid = true;
    double AV = static_cast<double>(P.getInt("a"));
    double BV = static_cast<double>(P.getInt("b"));
    (void)Valid;
    return std::abs(std::log2(AV) - 4.0) * 3 + std::abs(BV - 7.0);
  };
  LambdaObjective Inner(LambdaObjective::OutcomeFn(
      [&](const Point &P) { return EvalOutcome::success(Metric(P)); }));

  FaultInjectionOptions FOpts;
  FOpts.FailureProbability = 0.3;
  FOpts.Seed = 99;
  FaultInjectingObjective Probe(Inner, FOpts); // classification only

  // The clean subspace: points the injector never fails.
  double CleanBest = std::numeric_limits<double>::infinity();
  std::string CleanBestKey;
  for (const PointValue &AV : enumerateValues(S.Params[0]))
    for (const PointValue &BV : enumerateValues(S.Params[1])) {
      Point P;
      P.set("a", AV);
      P.set("b", BV);
      if (Probe.classify(P) != FailureKind::None)
        continue;
      if (Metric(P) < CleanBest) {
        CleanBest = Metric(P);
        CleanBestKey = P.key();
      }
    }
  ASSERT_TRUE(std::isfinite(CleanBest));

  for (const char *Name : {"bandit", "tpe"}) {
    FaultInjectingObjective Faulty(Inner, FOpts);
    SearchOptions Opts;
    Opts.MaxEvaluations = 300;
    Opts.Seed = 5;
    SearchResult R = makeSearcher(Name)->search(S, Faulty, Opts);
    ASSERT_TRUE(R.Found) << Name;
    EXPECT_EQ(R.BestMetric, CleanBest) << Name;
    EXPECT_EQ(R.Best.key(), CleanBestKey) << Name;
  }
}

TEST(FaultInjection, DeterministicClassification) {
  Space S = mixedSpace();
  LambdaObjective Inner(synthetic);
  FaultInjectionOptions FOpts;
  FOpts.FailureProbability = 0.5;
  FOpts.Seed = 7;
  FaultInjectingObjective F1(Inner, FOpts), F2(Inner, FOpts);
  Rng R(3);
  int Failed = 0;
  for (int I = 0; I < 200; ++I) {
    Point P = samplePoint(S, R);
    EXPECT_EQ(F1.classify(P), F2.classify(P));
    if (F1.classify(P) != FailureKind::None)
      ++Failed;
  }
  // ~50% fail rate with generous slack.
  EXPECT_GT(Failed, 50);
  EXPECT_LT(Failed, 150);
  // A different seed induces a different clean subspace.
  FOpts.Seed = 8;
  FaultInjectingObjective F3(Inner, FOpts);
  Rng R2(3);
  int Differs = 0;
  for (int I = 0; I < 200; ++I) {
    Point P = samplePoint(S, R2);
    if (F1.classify(P) != F3.classify(P))
      ++Differs;
  }
  EXPECT_GT(Differs, 0);
}

TEST(FaultInjection, KindMixIsRespected) {
  Space S = mixedSpace();
  LambdaObjective Inner(synthetic);
  FaultInjectionOptions FOpts;
  FOpts.FailureProbability = 1.0;
  FOpts.KindMix = {{FailureKind::RuntimeTrap, 1.0},
                   {FailureKind::ChecksumMismatch, 1.0}};
  FOpts.Seed = 11;
  FaultInjectingObjective Faulty(Inner, FOpts);
  Rng R(1);
  for (int I = 0; I < 100; ++I) {
    FailureKind K = Faulty.classify(samplePoint(S, R));
    EXPECT_TRUE(K == FailureKind::RuntimeTrap ||
                K == FailureKind::ChecksumMismatch)
        << failureKindName(K);
  }
}

} // namespace
} // namespace locus
