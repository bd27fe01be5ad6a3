//===- NativeEvaluatorTest.cpp - compile-and-run path tests -------------------===//

#include "src/cir/Parser.h"
#include "src/eval/Evaluator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/transform/Tiling.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>

namespace locus {
namespace {

bool pathExists(const std::string &Path) {
  struct stat St;
  return stat(Path.c_str(), &St) == 0;
}

/// Counts entries (excluding . and ..) in a directory.
int dirEntryCount(const std::string &Path) {
  DIR *D = opendir(Path.c_str());
  if (!D)
    return -1;
  int N = 0;
  while (dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name != "." && Name != "..")
      ++N;
  }
  closedir(D);
  return N;
}

TEST(NativeEvaluator, EmitsCompilableC) {
  auto P = cir::parseProgram(workloads::dgemmSource(16, 16, 16));
  ASSERT_TRUE(P.ok());
  std::string C = eval::emitNativeC(**P);
  EXPECT_NE(C.find("int main(void)"), std::string::npos);
  EXPECT_NE(C.find("LOCUS_CHECKSUM"), std::string::npos);
  // Region markers must not leak into the native source.
  EXPECT_EQ(C.find("@Locus"), std::string::npos);
}

TEST(NativeEvaluator, MatchesSimulatorChecksum) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  auto P = cir::parseProgram(workloads::dgemmSource(24, 24, 24));
  ASSERT_TRUE(P.ok());

  eval::NativeResult Native = eval::evaluateNative(**P);
  ASSERT_TRUE(Native.Ok) << Native.Error;
  EXPECT_GT(Native.Seconds, 0);

  eval::EvalOptions SimOpts;
  SimOpts.CountCost = false;
  eval::RunResult Sim = eval::evaluateProgram(**P, SimOpts);
  ASSERT_TRUE(Sim.Ok);
  EXPECT_NEAR(Native.Checksum, Sim.Checksum,
              1e-6 * std::max(1.0, std::abs(Sim.Checksum)));
}

TEST(NativeEvaluator, HarnessNamesDoNotShadowProgramGlobals) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  // The harness's own locals (checksum accumulator, element pointer, loop
  // index, timers) must not collide with globals of these names.
  auto P = cir::parseProgram(R"(
double s[16];
double p[16];
double t0;
int secs;
int main() {
  int i;
  for (i = 0; i < 16; i++) {
    s[i] = s[i] + p[i] * t0;
    p[i] = p[i] + secs + i;
  }
}
)");
  ASSERT_TRUE(P.ok()) << P.message();
  eval::NativeResult Native = eval::evaluateNative(**P);
  ASSERT_TRUE(Native.Ok) << Native.Error;

  eval::EvalOptions SimOpts;
  SimOpts.CountCost = false;
  eval::RunResult Sim = eval::evaluateProgram(**P, SimOpts);
  ASSERT_TRUE(Sim.Ok) << Sim.Error;
  EXPECT_NEAR(Native.Checksum, Sim.Checksum,
              1e-6 * std::max(1.0, std::abs(Sim.Checksum)));
}

TEST(NativeEvaluator, TransformedVariantMatchesBaselineNatively) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  auto P = cir::parseProgram(workloads::dgemmSource(20, 20, 20));
  ASSERT_TRUE(P.ok());
  eval::NativeResult Base = eval::evaluateNative(**P);
  ASSERT_TRUE(Base.Ok) << Base.Error;

  auto Variant = (*P)->clone();
  transform::TransformContext Ctx;
  Ctx.Prog = Variant.get();
  transform::TilingArgs Args;
  Args.Factors = {4, 8, 4};
  ASSERT_TRUE(transform::applyTiling(*Variant->findRegions("matmul")[0], Args,
                                     Ctx)
                  .succeeded());
  eval::NativeResult Tiled = eval::evaluateNative(*Variant);
  ASSERT_TRUE(Tiled.Ok) << Tiled.Error;
  EXPECT_NEAR(Base.Checksum, Tiled.Checksum,
              1e-6 * std::max(1.0, std::abs(Base.Checksum)));
}

//===----------------------------------------------------------------------===//
// Strict harness-output parsing (no compiler needed)
//===----------------------------------------------------------------------===//

TEST(NativeParse, AcceptsCanonicalOutput) {
  double Secs = 0, Sum = 0;
  Status S = eval::parseNativeOutput(
      "LOCUS_TIME 0.001234567\nLOCUS_CHECKSUM 42.500000000\n", Secs, Sum);
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_DOUBLE_EQ(Secs, 0.001234567);
  EXPECT_DOUBLE_EQ(Sum, 42.5);
}

TEST(NativeParse, AcceptsScientificAndNegativeChecksum) {
  double Secs = 0, Sum = 0;
  ASSERT_TRUE(
      eval::parseNativeOutput("LOCUS_TIME 1.5e-4\nLOCUS_CHECKSUM -3.25\n",
                              Secs, Sum)
          .ok());
  EXPECT_DOUBLE_EQ(Secs, 1.5e-4);
  EXPECT_DOUBLE_EQ(Sum, -3.25);
}

TEST(NativeParse, RejectsGarbage) {
  double Secs = 0, Sum = 0;
  // Anything a crashing or chatty variant might print must be rejected so
  // it classifies as MetricUnstable, never as a silently wrong metric.
  const char *Bad[] = {
      "",                                                   // empty
      "segmentation fault (not really): 0xdeadbeef\n",      // garbage
      "LOCUS_TIME 0.5\n",                                   // missing field
      "LOCUS_CHECKSUM 1.0\n",                               // missing field
      "LOCUS_TIME 0.5\nLOCUS_CHECKSUM 1.0\nextra line\n",   // trailing junk
      "noise\nLOCUS_TIME 0.5\nLOCUS_CHECKSUM 1.0\n",        // leading junk
      "LOCUS_TIME 0.5\nLOCUS_TIME 0.6\nLOCUS_CHECKSUM 1\n", // duplicate
      "LOCUS_TIME 0.5abc\nLOCUS_CHECKSUM 1.0\n",            // partial token
      "LOCUS_TIME abc\nLOCUS_CHECKSUM 1.0\n",               // non-numeric
      "LOCUS_TIME -0.5\nLOCUS_CHECKSUM 1.0\n",              // negative time
      "LOCUS_TIME inf\nLOCUS_CHECKSUM 1.0\n",               // non-finite
      "LOCUS_TIME nan\nLOCUS_CHECKSUM 1.0\n",               // non-finite
      "LOCUS_TIME 0.5\nLOCUS_CHECKSUM nan\n",               // non-finite sum
      "LOCUS_TIME\nLOCUS_CHECKSUM 1.0\n",                   // missing value
  };
  for (const char *Output : Bad)
    EXPECT_FALSE(eval::parseNativeOutput(Output, Secs, Sum).ok())
        << "accepted: " << Output;
}

TEST(NativeParse, MissingCompilerIsDetected) {
  EXPECT_FALSE(
      eval::nativeCompilerAvailable("definitely-not-a-compiler-zzz"));
}

//===----------------------------------------------------------------------===//
// Sandboxed native evaluation (gated on a system compiler)
//===----------------------------------------------------------------------===//

TEST(NativeSandbox, HermeticWorkdirsAreCleanedUp) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  auto P = cir::parseProgram(workloads::dgemmSource(12, 12, 12));
  ASSERT_TRUE(P.ok());

  support::TempDir Base("locus-native-test-");
  ASSERT_TRUE(Base.valid());
  eval::NativeOptions Opts;
  Opts.WorkDir = Base.path();
  Opts.Repeats = 1;
  eval::NativeResult R = eval::evaluateNative(**P, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.WorkDir.empty());
  // Every per-evaluation mkdtemp directory under the base is gone.
  EXPECT_EQ(dirEntryCount(Base.path()), 0);
}

TEST(NativeSandbox, KeepWorkDirRetainsSources) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  auto P = cir::parseProgram(workloads::dgemmSource(12, 12, 12));
  ASSERT_TRUE(P.ok());

  support::TempDir Base("locus-native-test-");
  ASSERT_TRUE(Base.valid());
  eval::NativeOptions Opts;
  Opts.WorkDir = Base.path();
  Opts.Repeats = 1;
  Opts.KeepWorkDir = true;
  eval::NativeResult R = eval::evaluateNative(**P, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.WorkDir.empty());
  EXPECT_TRUE(pathExists(R.WorkDir + "/variant.c"));
  // Base's destructor removes the retained tree with the rest.
}

TEST(NativeSandbox, CompileFailureCapturesCompilerStderr) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  auto P = cir::parseProgram(workloads::dgemmSource(8, 8, 8));
  ASSERT_TRUE(P.ok());

  support::TempDir Base("locus-native-test-");
  ASSERT_TRUE(Base.valid());
  eval::NativeOptions Opts;
  Opts.WorkDir = Base.path();
  Opts.Flags = {"-O2", "-fthis-flag-does-not-exist"};
  eval::NativeResult R = eval::evaluateNative(**P, Opts);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure, search::FailureKind::PrepareFailed);
  EXPECT_NE(R.Error.find("fthis-flag-does-not-exist"), std::string::npos)
      << R.Error;
  // The failed evaluation's workdir is cleaned up too.
  EXPECT_EQ(dirEntryCount(Base.path()), 0);
}

TEST(NativeSandbox, RunDeadlineClassifiesBudgetExceeded) {
  if (!eval::nativeCompilerAvailable("cc"))
    GTEST_SKIP() << "no system C compiler";
  // An unoptimized large dgemm cannot finish in 10ms: the sandbox watchdog
  // must kill it and the evaluator must classify the loss as BudgetExceeded.
  auto P = cir::parseProgram(workloads::dgemmSource(400, 400, 400));
  ASSERT_TRUE(P.ok());

  support::TempDir Base("locus-native-test-");
  ASSERT_TRUE(Base.valid());
  eval::NativeOptions Opts;
  Opts.WorkDir = Base.path();
  Opts.Flags = {"-O0"};
  Opts.Repeats = 1;
  Opts.RunTimeoutSeconds = 0.01;
  eval::NativeResult R = eval::evaluateNative(**P, Opts);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure, search::FailureKind::BudgetExceeded) << R.Error;
  EXPECT_EQ(dirEntryCount(Base.path()), 0);
}

TEST(NativeSandbox, OutcomeMapping) {
  eval::NativeResult Ok;
  Ok.Ok = true;
  Ok.Seconds = 0.5;
  search::EvalOutcome O = eval::toEvalOutcome(Ok);
  EXPECT_TRUE(O.ok());
  EXPECT_DOUBLE_EQ(O.Metric, 0.5);

  eval::NativeResult Bad;
  Bad.Failure = search::FailureKind::RuntimeTrap;
  Bad.Error = "variant killed by SIGSEGV";
  O = eval::toEvalOutcome(Bad);
  EXPECT_FALSE(O.ok());
  EXPECT_EQ(O.Failure, search::FailureKind::RuntimeTrap);
  EXPECT_EQ(O.Detail, "variant killed by SIGSEGV");
}

//===----------------------------------------------------------------------===//
// Deterministic retry-with-backoff for MetricUnstable measurements
//===----------------------------------------------------------------------===//

TEST(NativeRetry, BackoffIsAPureFunctionOfSeedAndAttempt) {
  // Same (seed, attempt) -> same delay, on every call and in any order:
  // this is what makes --jobs N retry schedules identical to --jobs 1.
  for (int Attempt : {0, 1, 2, 5}) {
    double D = eval::nativeBackoffSeconds(1234, Attempt, 0.05, 10.0);
    EXPECT_DOUBLE_EQ(D, eval::nativeBackoffSeconds(1234, Attempt, 0.05, 10.0));
    EXPECT_GT(D, 0);
  }
  // Different seeds jitter differently (with overwhelming probability for
  // these two fixed seeds).
  EXPECT_NE(eval::nativeBackoffSeconds(1, 3, 0.05, 10.0),
            eval::nativeBackoffSeconds(2, 3, 0.05, 10.0));
}

TEST(NativeRetry, BackoffGrowsExponentiallyAndRespectsCap) {
  // Jitter is bounded in [0.5, 1.0], so attempt K+2 (4x base) always
  // exceeds attempt K (1x base) despite jitter.
  double D0 = eval::nativeBackoffSeconds(7, 0, 0.1, 1e9);
  double D2 = eval::nativeBackoffSeconds(7, 2, 0.1, 1e9);
  EXPECT_GT(D2, D0);
  EXPECT_GE(D0, 0.05);
  EXPECT_LE(D0, 0.1);
  // The cap bounds every delay.
  for (int Attempt = 0; Attempt < 30; ++Attempt)
    EXPECT_LE(eval::nativeBackoffSeconds(7, Attempt, 0.1, 0.75), 0.75);
  // Disabled base means no sleep.
  EXPECT_DOUBLE_EQ(eval::nativeBackoffSeconds(7, 3, 0.0, 1.0), 0.0);
}

TEST(NativeRetry, RetriesOnlyMetricUnstable) {
  using search::FailureKind;
  auto Unstable = [] {
    eval::NativeResult R;
    R.Failure = FailureKind::MetricUnstable;
    R.Error = "checksum varies";
    return R;
  };
  auto Good = [] {
    eval::NativeResult R;
    R.Ok = true;
    R.Seconds = 0.25;
    return R;
  };

  // Unstable twice, then clean: succeeds after two retries, sleeping the
  // deterministic schedule.
  int Calls = 0;
  std::vector<double> Sleeps;
  eval::NativeResult R = eval::retryUnstable(
      [&](int Attempt) {
        EXPECT_EQ(Attempt, Calls);
        ++Calls;
        return Calls <= 2 ? Unstable() : Good();
      },
      [&](double S) { Sleeps.push_back(S); }, 42, 3, 0.05, 1.0);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(Calls, 3);
  ASSERT_EQ(Sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(Sleeps[0], eval::nativeBackoffSeconds(42, 0, 0.05, 1.0));
  EXPECT_DOUBLE_EQ(Sleeps[1], eval::nativeBackoffSeconds(42, 1, 0.05, 1.0));

  // Persistent instability: capped attempts, annotated error.
  Calls = 0;
  R = eval::retryUnstable([&](int) { ++Calls; return Unstable(); },
                          nullptr, 42, 2, 0.0, 0.0);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(Calls, 3); // 1 initial + 2 retries
  EXPECT_NE(R.Error.find("2 backoff retries"), std::string::npos) << R.Error;

  // A hard failure is returned immediately, never retried.
  Calls = 0;
  R = eval::retryUnstable(
      [&](int) {
        ++Calls;
        eval::NativeResult N;
        N.Failure = FailureKind::RuntimeTrap;
        N.Error = "SIGSEGV";
        return N;
      },
      nullptr, 42, 5, 0.0, 0.0);
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(R.Failure, FailureKind::RuntimeTrap);
  EXPECT_EQ(R.Error, "SIGSEGV");

  // MaxRetries == 0 disables retrying entirely.
  Calls = 0;
  R = eval::retryUnstable([&](int) { ++Calls; return Unstable(); },
                          nullptr, 42, 0, 0.0, 0.0);
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(R.Failure, FailureKind::MetricUnstable);
}

} // namespace
} // namespace locus
