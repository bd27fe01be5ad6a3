//===- ConstEvalTest.cpp - Integer constant evaluator and loop facts ------===//
//
// Unit tables for cir::evalConstInt (every operator, environment lookup and
// each overflow / division hazard) and cir::constLoop / cir::tripCount
// (inclusive and exclusive bounds, empty loops, non-positive steps and the
// int64_t edges). The sanitizer presets run these too, so any undefined
// behaviour left in the evaluator fails there.
//
//===----------------------------------------------------------------------===//

#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>

namespace locus {
namespace cir {
namespace {

constexpr int64_t Max = INT64_MAX;
constexpr int64_t Min = INT64_MIN;

/// Parses `v = Text;` and returns its right-hand side.
ExprPtr parseExprOrDie(const std::string &Text) {
  auto Stmts = parseStatements("v = " + Text + ";");
  EXPECT_TRUE(Stmts.ok()) << Text << ": " << Stmts.message();
  if (!Stmts.ok() || Stmts->size() != 1)
    return nullptr;
  auto *A = dyn_cast<AssignStmt>((*Stmts)[0].get());
  EXPECT_NE(A, nullptr) << Text;
  return A ? std::move(A->Rhs) : nullptr;
}

/// Parses `for (Header) v = i;` into its loop.
StmtPtr parseLoopOrDie(const std::string &Header) {
  auto Stmts = parseStatements("for (" + Header + ") v = i;");
  EXPECT_TRUE(Stmts.ok()) << Header << ": " << Stmts.message();
  if (!Stmts.ok() || Stmts->size() != 1)
    return nullptr;
  return std::move((*Stmts)[0]);
}

struct EvalCase {
  const char *Text;
  std::optional<int64_t> Want;
};

TEST(ConstEval, EveryOperatorFolds) {
  const EvalCase Cases[] = {
      {"7", 7},
      {"-7", -7},
      {"!0", 1},
      {"!5", 0},
      {"2 + 3", 5},
      {"2 - 3", -1},
      {"4 * -5", -20},
      {"7 / 2", 3},
      {"-7 / 2", -3},
      {"7 % 3", 1},
      {"-7 % 3", -1},
      {"1 < 2", 1},
      {"2 < 2", 0},
      {"2 <= 2", 1},
      {"3 <= 2", 0},
      {"3 > 2", 1},
      {"2 > 2", 0},
      {"2 >= 2", 1},
      {"1 >= 2", 0},
      {"2 == 2", 1},
      {"2 == 3", 0},
      {"2 != 3", 1},
      {"2 != 2", 0},
      {"1 && 2", 1},
      {"1 && 0", 0},
      {"0 || 3", 1},
      {"0 || 0", 0},
      {"min(3, -4)", -4},
      {"max(3, -4)", 3},
      {"max(min(1, 2) * 10, 3 + 4)", 10},
      {"min(3)", std::nullopt},
      {"foo(1, 2)", std::nullopt},
      {"1.5", std::nullopt},
      {"A[0]", std::nullopt},
      {"n", std::nullopt},
  };
  for (const EvalCase &C : Cases) {
    ExprPtr E = parseExprOrDie(C.Text);
    ASSERT_NE(E, nullptr) << C.Text;
    EXPECT_EQ(evalConstInt(*E), C.Want) << C.Text;
  }
}

TEST(ConstEval, EnvironmentLookup) {
  const std::map<std::string, int64_t> Env = {{"n", 5}, {"m", -2}};
  ExprPtr Hit = parseExprOrDie("n * m + 1");
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(evalConstInt(*Hit, &Env), -9);
  EXPECT_EQ(evalConstInt(*Hit), std::nullopt) << "no environment, no names";
  ExprPtr Miss = parseExprOrDie("n + k");
  ASSERT_NE(Miss, nullptr);
  EXPECT_EQ(evalConstInt(*Miss, &Env), std::nullopt);
}

TEST(ConstEval, OverflowAndBadDivisionAreNotConstants) {
  const EvalCase Cases[] = {
      // The int64_t edges themselves are fine...
      {"9223372036854775807", Max},
      {"-9223372036854775807 - 1", Min},
      {"4611686018427387904 * -2", Min},
      {"(-9223372036854775807 - 1) / 1", Min},
      {"(-9223372036854775807 - 1) % 3", -2},
      {"-(-9223372036854775807)", Max},
      // ...one step past them is not.
      {"9223372036854775807 + 1", std::nullopt},
      {"-9223372036854775807 - 2", std::nullopt},
      {"4611686018427387904 * 2", std::nullopt},
      {"-(-9223372036854775807 - 1)", std::nullopt},
      {"(-9223372036854775807 - 1) / -1", std::nullopt},
      {"(-9223372036854775807 - 1) % -1", std::nullopt},
      {"1 / 0", std::nullopt},
      {"1 % 0", std::nullopt},
      // An overflow anywhere poisons the whole expression.
      {"(9223372036854775807 + 1) > 0", std::nullopt},
      {"0 && 4611686018427387904 * 4", std::nullopt},
      {"min(1, 4611686018427387904 * 4)", std::nullopt},
  };
  for (const EvalCase &C : Cases) {
    ExprPtr E = parseExprOrDie(C.Text);
    ASSERT_NE(E, nullptr) << C.Text;
    EXPECT_EQ(evalConstInt(*E), C.Want) << C.Text;
  }
}

struct LoopCase {
  const char *Header;
  bool Constant;
  ConstLoop Want;
};

TEST(ConstEval, ConstLoopFacts) {
  const LoopCase Cases[] = {
      {"i = 0; i < 10; i++", true, {0, 10, 1, 10}},
      {"i = 0; i <= 10; i++", true, {0, 11, 1, 11}},
      {"i = 0; i <= 10; i += 3", true, {0, 11, 3, 4}},
      {"i = 2; i < 10; i += 4", true, {2, 10, 4, 2}},
      {"i = -3; i < 3; i += 2", true, {-3, 3, 2, 3}},
      {"i = 5; i < 5; i++", true, {5, 5, 1, 0}},
      {"i = 5; i <= 2; i++", true, {5, 3, 1, 0}},
      {"i = 0; i < 2 * 8 - 1; i += 1 + 1", true, {0, 15, 2, 8}},
      {"i = 0; i < 9223372036854775807; i++", true, {0, Max, 1, Max}},
      {"i = -9223372036854775807; i < 9223372036854775807; i += 2",
       true,
       {-Max, Max, 2, Max}},
      {"i = -9223372036854775807 - 1; i < -9223372036854775807 - 1; i++",
       true,
       {Min, Min, 1, 0}},
      // Not constant: symbolic bounds, non-positive steps, and a limit or
      // trip count that leaves int64_t.
      {"i = 0; i < n; i++", false, {}},
      {"i = n; i < 10; i++", false, {}},
      {"i = 0; i < 10; i += 0", false, {}},
      {"i = 7; i < 100; i += -1", false, {}},
      {"i = 0; i <= 9223372036854775807; i++", false, {}},
      {"i = -9223372036854775807; i < 9223372036854775807; i++", false, {}},
      {"i = 0; i < 4611686018427387904 * 4; i++", false, {}},
  };
  for (const LoopCase &C : Cases) {
    StmtPtr S = parseLoopOrDie(C.Header);
    ASSERT_NE(S, nullptr) << C.Header;
    auto *Loop = dyn_cast<ForStmt>(S.get());
    ASSERT_NE(Loop, nullptr) << C.Header;
    std::optional<ConstLoop> L = constLoop(*Loop);
    ASSERT_EQ(L.has_value(), C.Constant) << C.Header;
    if (!L)
      continue;
    EXPECT_EQ(L->First, C.Want.First) << C.Header;
    EXPECT_EQ(L->Limit, C.Want.Limit) << C.Header;
    EXPECT_EQ(L->Step, C.Want.Step) << C.Header;
    EXPECT_EQ(L->Trips, C.Want.Trips) << C.Header;
  }
}

TEST(ConstEval, TripCountEdges) {
  EXPECT_EQ(tripCount(0, 0, 1), 0);
  EXPECT_EQ(tripCount(10, 0, 1), 0);
  EXPECT_EQ(tripCount(0, 1, 5), 1);
  EXPECT_EQ(tripCount(0, 10, 5), 2);
  EXPECT_EQ(tripCount(0, 11, 5), 3);
  EXPECT_EQ(tripCount(Min, Max, Max), 3); // Min, -1, Max - 1
  EXPECT_EQ(tripCount(Min, Max, 1), std::nullopt);
  EXPECT_EQ(tripCount(-1, Max, 1), std::nullopt);
  EXPECT_EQ(tripCount(0, Max, 1), Max);
  EXPECT_EQ(tripCount(0, 10, 0), std::nullopt);
  EXPECT_EQ(tripCount(0, 10, -1), std::nullopt);
}

TEST(ConstEval, ExclusiveBound) {
  StmtPtr Lt = parseLoopOrDie("i = 0; i < n; i++");
  StmtPtr Le = parseLoopOrDie("i = 0; i <= n; i++");
  StmtPtr LeConst = parseLoopOrDie("i = 0; i <= 9; i++");
  ASSERT_TRUE(Lt && Le && LeConst);
  EXPECT_EQ(printExpr(*exclusiveBound(*cast<ForStmt>(Lt.get()))), "n");
  EXPECT_EQ(printExpr(*exclusiveBound(*cast<ForStmt>(Le.get()))), "n + 1");
  EXPECT_EQ(printExpr(*exclusiveBound(*cast<ForStmt>(LeConst.get()))), "10");
}

TEST(ConstEval, ParserFoldsDimensionsStepsAndConstInits) {
  auto P = parseProgram(R"(
#define N 8
const int h = N / 2;
int w = h * 3;
double A[max(N, w)][N - h];
int main() {
  int i;
  for (i = 0; i < N; i += h)
    A[i][0] = 1.0;
  return 0;
}
)");
  ASSERT_TRUE(P.ok()) << P.message();
  const DeclStmt *A = (*P)->findGlobal("A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Dims, (std::vector<int64_t>{12, 4}));
  std::vector<LoopEntry> Loops = listLoops(*(*P)->Body);
  ASSERT_EQ(Loops.size(), 1u);
  EXPECT_EQ(Loops[0].Loop->Step, 4);
}

TEST(ConstEval, OverflowingArrayDimensionIsALocatedParseError) {
  auto P = parseProgram("int main() { return 0; }\n"
                        "double A[4611686018427387904 * 4];\n");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.message().find("line 2"), std::string::npos) << P.message();
  EXPECT_NE(P.message().find("array dimension of 'A' is not an integer "
                             "constant"),
            std::string::npos)
      << P.message();
}

TEST(ConstEval, OverflowingStepIsALocatedParseError) {
  auto P = parseProgram(R"(double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i += 9223372036854775807 + 1)
    A[i] = 1.0;
  return 0;
}
)");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.message().find("line 4"), std::string::npos) << P.message();
  EXPECT_NE(P.message().find("for step must be an integer constant"),
            std::string::npos)
      << P.message();
}

} // namespace
} // namespace cir
} // namespace locus
