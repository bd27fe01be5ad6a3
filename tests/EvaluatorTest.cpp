//===- EvaluatorTest.cpp - Evaluator semantics and cost model tests -----------===//

#include "src/cir/Parser.h"
#include "src/eval/Evaluator.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using namespace eval;

std::unique_ptr<cir::Program> parseCOrDie(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

//===----------------------------------------------------------------------===//
// Semantics
//===----------------------------------------------------------------------===//

TEST(Evaluator, ComputesKnownValues) {
  const char *Src = R"(
double A[4];
double B[4];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    B[i] = A[i] * 2.0 + 1.0;
}
)";
  auto P = parseCOrDie(Src);
  EvalOptions Opts;
  Opts.CountCost = false;
  ProgramEvaluator E(*P, Opts);
  ASSERT_TRUE(E.prepare().ok());
  ASSERT_TRUE(E.setDoubleArray("A", {1.0, 2.0, 3.0, 4.0}).ok());
  RunResult R = E.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  auto B = E.doubleArray("B");
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(*B, (std::vector<double>{3.0, 5.0, 7.0, 9.0}));
  EXPECT_EQ(R.LoopIterations, 4u);
}

TEST(Evaluator, IntegerSemanticsAndModulo) {
  const char *Src = R"(
int out[6];
int main() {
  int i;
  for (i = 0; i < 6; i++)
    out[i] = (i * 7 + 3) % 5 - 7 / 2;
}
)";
  auto P = parseCOrDie(Src);
  EvalOptions Opts;
  Opts.CountCost = false;
  ProgramEvaluator E(*P, Opts);
  ASSERT_TRUE(E.prepare().ok());
  RunResult R = E.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  // (3,10,17,24,31,38)%5 = 3,0,2,4,1,3; minus 3.
  EXPECT_EQ(R.Checksum, 3 + 0 + 2 + 4 + 1 + 3 - 6 * 3);
}

TEST(Evaluator, BoundsCheckingReportsArray) {
  const char *Src = R"(
double A[4];
int main() {
  int i;
  for (i = 0; i < 8; i++)
    A[i] = 1.0;
}
)";
  auto P = parseCOrDie(Src);
  RunResult R = evaluateProgram(*P);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds for A"), std::string::npos) << R.Error;
}

TEST(Evaluator, UnknownCallIsCompileError) {
  auto P = parseCOrDie("int main() { mystery(); }");
  ProgramEvaluator E(*P, EvalOptions());
  Status S = E.prepare();
  EXPECT_FALSE(S.ok());
  EXPECT_NE(S.message().find("mystery"), std::string::npos);
}

TEST(Evaluator, IterationBudgetGuard) {
  const char *Src = R"(
double A[2];
int main() {
  int i, j;
  for (i = 0; i < 10000; i++)
    for (j = 0; j < 10000; j++)
      A[0] = A[0] + 1.0;
}
)";
  auto P = parseCOrDie(Src);
  EvalOptions Opts;
  Opts.MaxIterations = 1000;
  ProgramEvaluator E(*P, Opts);
  ASSERT_TRUE(E.prepare().ok());
  RunResult R = E.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(Evaluator, RunsAreRepeatable) {
  const char *Src = R"(
double A[32];
int main() {
  int i;
  for (i = 1; i < 32; i++)
    A[i] = A[i - 1] * 0.5 + A[i];
}
)";
  auto P = parseCOrDie(Src);
  ProgramEvaluator E(*P, EvalOptions());
  ASSERT_TRUE(E.prepare().ok());
  RunResult R1 = E.run();
  RunResult R2 = E.run();
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(R1.Checksum, R2.Checksum);
  EXPECT_EQ(R1.Cycles, R2.Cycles);
}

//===----------------------------------------------------------------------===//
// Cost model behaviour
//===----------------------------------------------------------------------===//

std::string transposedTraversal(bool RowMajor) {
  std::string Body = RowMajor ? "A[i][j] = A[i][j] + 1.0;"
                              : "A[j][i] = A[j][i] + 1.0;";
  return std::string(R"(
#define N 64
double A[N][N];
int main() {
  int i, j;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      )") + Body + "\n}\n";
}

TEST(CostModel, RowMajorTraversalIsCheaper) {
  auto Row = parseCOrDie(transposedTraversal(true));
  auto Col = parseCOrDie(transposedTraversal(false));
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  RunResult RRow = evaluateProgram(*Row, Opts);
  RunResult RCol = evaluateProgram(*Col, Opts);
  ASSERT_TRUE(RRow.Ok && RCol.Ok);
  EXPECT_LT(RRow.Cycles * 1.5, RCol.Cycles)
      << "row " << RRow.Cycles << " col " << RCol.Cycles;
}

TEST(CostModel, ParallelForReducesCycles) {
  const char *Body = R"(
#define N 256
double A[N][N];
int main() {
  int i, j;
%PRAGMA%
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      A[i][j] = A[i][j] * 1.5 + 2.0;
}
)";
  std::string Seq(Body), Par(Body);
  Seq.replace(Seq.find("%PRAGMA%"), 8, "");
  Par.replace(Par.find("%PRAGMA%"), 8, "#pragma omp parallel for");
  auto PSeq = parseCOrDie(Seq);
  auto PPar = parseCOrDie(Par);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny(); // 4 cores
  RunResult RSeq = evaluateProgram(*PSeq, Opts);
  RunResult RPar = evaluateProgram(*PPar, Opts);
  ASSERT_TRUE(RSeq.Ok && RPar.Ok);
  EXPECT_EQ(RSeq.Checksum, RPar.Checksum);
  EXPECT_GT(RSeq.Cycles / RPar.Cycles, 2.5);
  EXPECT_LT(RSeq.Cycles / RPar.Cycles, 4.5);
}

TEST(CostModel, DynamicScheduleHelpsImbalance) {
  // Triangular inner loop: contiguous static chunks are imbalanced.
  const char *Body = R"(
#define N 128
double A[N][N];
int main() {
  int i, j;
#pragma omp parallel for %SCHED%
  for (i = 0; i < N; i++)
    for (j = 0; j <= i; j++)
      A[i][j] = A[i][j] + 1.0;
}
)";
  std::string Static(Body), Dynamic(Body);
  Static.replace(Static.find("%SCHED%"), 7, "");
  Dynamic.replace(Dynamic.find("%SCHED%"), 7, "schedule(dynamic,4)");
  auto PStatic = parseCOrDie(Static);
  auto PDynamic = parseCOrDie(Dynamic);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  RunResult RS = evaluateProgram(*PStatic, Opts);
  RunResult RD = evaluateProgram(*PDynamic, Opts);
  ASSERT_TRUE(RS.Ok && RD.Ok);
  EXPECT_LT(RD.Cycles, RS.Cycles);
}

TEST(CostModel, IvdepUnlocksUnprovableLoops) {
  // Indirect subscripts defeat the dependence analyzer, so the compiler
  // model stays scalar unless the programmer asserts independence (the
  // paper's ICC ivdep / vector always usage).
  const char *Body = R"(
#define N 512
double A[N];
double B[N];
int idx[N];
int main() {
  int i, r;
  for (r = 0; r < 8; r++) {
%PRAGMA%
    for (i = 0; i < N; i++)
      A[i] = A[i] * 0.5 + B[idx[i]] * 0.25 + 0.001;
  }
}
)";
  std::string Plain(Body), Vec(Body);
  Plain.replace(Plain.find("%PRAGMA%"), 8, "");
  Vec.replace(Vec.find("%PRAGMA%"), 8, "#pragma ivdep\n#pragma vector always");
  auto PPlain = parseCOrDie(Plain);
  auto PVec = parseCOrDie(Vec);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::xeonE5v3();
  RunResult RPlain = evaluateProgram(*PPlain, Opts);
  RunResult RVec = evaluateProgram(*PVec, Opts);
  ASSERT_TRUE(RPlain.Ok && RVec.Ok);
  EXPECT_EQ(RPlain.Checksum, RVec.Checksum);
  EXPECT_GT(RPlain.Cycles / RVec.Cycles, 1.2);
}

TEST(CostModel, AutoVectorizationOfProvenIndependentLoops) {
  // A provably independent unit-stride loop vectorizes with no pragma at
  // all, so adding one changes nothing.
  const char *Body = R"(
#define N 512
double A[N];
double B[N];
int main() {
  int i, r;
  for (r = 0; r < 8; r++) {
%PRAGMA%
    for (i = 0; i < N; i++)
      A[i] = A[i] * 0.5 + B[i] * B[i] + 0.001;
  }
}
)";
  std::string Plain(Body), Vec(Body);
  Plain.replace(Plain.find("%PRAGMA%"), 8, "");
  Vec.replace(Vec.find("%PRAGMA%"), 8, "#pragma ivdep\n#pragma vector always");
  auto PPlain = parseCOrDie(Plain);
  auto PVec = parseCOrDie(Vec);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::xeonE5v3();
  RunResult RPlain = evaluateProgram(*PPlain, Opts);
  RunResult RVec = evaluateProgram(*PVec, Opts);
  ASSERT_TRUE(RPlain.Ok && RVec.Ok);
  EXPECT_DOUBLE_EQ(RPlain.Cycles, RVec.Cycles);
}

TEST(CostModel, ProvenDependenceDefeatsIvdep) {
  // Seidel-style carried dependence: the pragma must not yield a speedup.
  const char *Body = R"(
#define N 512
double A[N + 2];
int main() {
  int i, r;
  for (r = 0; r < 8; r++) {
%PRAGMA%
    for (i = 1; i < N + 1; i++)
      A[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
  }
}
)";
  std::string Plain(Body), Vec(Body);
  Plain.replace(Plain.find("%PRAGMA%"), 8, "");
  Vec.replace(Vec.find("%PRAGMA%"), 8, "#pragma ivdep\n#pragma vector always");
  auto PPlain = parseCOrDie(Plain);
  auto PVec = parseCOrDie(Vec);
  EvalOptions Opts;
  RunResult RPlain = evaluateProgram(*PPlain, Opts);
  RunResult RVec = evaluateProgram(*PVec, Opts);
  ASSERT_TRUE(RPlain.Ok && RVec.Ok);
  EXPECT_DOUBLE_EQ(RPlain.Cycles, RVec.Cycles);
}

TEST(CostModel, CountCostOffIsFasterPath) {
  auto P = parseCOrDie(transposedTraversal(true));
  EvalOptions NoCost;
  NoCost.CountCost = false;
  RunResult R = evaluateProgram(*P, NoCost);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Cycles, 0.0);
  EXPECT_TRUE(R.Cache.empty());
}

} // namespace
} // namespace locus
