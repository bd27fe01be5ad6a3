//===- DependenceTest.cpp - Dependence analysis unit tests --------------------===//

#include "TestFiles.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace locus {
namespace {

using namespace analysis;
using namespace cir;

ForStmt *firstLoop(Program &P, const std::string &Region) {
  auto Regions = P.findRegions(Region);
  EXPECT_EQ(Regions.size(), 1u);
  auto Outer = listOuterLoops(*Regions[0]);
  EXPECT_FALSE(Outer.empty());
  return Outer[0].Loop;
}

std::unique_ptr<Program> parse(const std::string &Src) {
  auto P = parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

//===----------------------------------------------------------------------===//
// Affine extraction
//===----------------------------------------------------------------------===//

TEST(Affine, LinearForms) {
  auto P = parse("double A[100]; int n; int main() { int i, j; A[2*i + 3*j - n + 7] = 1.0; }");
  const auto *Assign =
      dyn_cast<AssignStmt>(P->Body->Stmts.back().get());
  ASSERT_NE(Assign, nullptr);
  const auto *Ref = cast<ArrayRef>(Assign->Lhs.get());
  std::optional<AffineExpr> E = toAffine(*Ref->Indices[0]);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->coeff("i"), 2);
  EXPECT_EQ(E->coeff("j"), 3);
  EXPECT_EQ(E->coeff("n"), -1);
  EXPECT_EQ(E->constant(), 7);
}

TEST(Affine, RejectsNonAffine) {
  auto P = parse(
      "double A[100]; int idx[100]; int main() { int i, j; A[i * j] = 1.0; "
      "A[i % 4] = 2.0; A[idx[i]] = 3.0; }");
  for (size_t I = P->Body->Stmts.size() - 3; I < P->Body->Stmts.size(); ++I) {
    const auto *Assign = dyn_cast<AssignStmt>(P->Body->Stmts[I].get());
    ASSERT_NE(Assign, nullptr);
    const auto *Ref = cast<ArrayRef>(Assign->Lhs.get());
    EXPECT_FALSE(toAffine(*Ref->Indices[0]).has_value());
  }
}

TEST(Affine, ArithmeticOnForms) {
  AffineExpr A = AffineExpr::variable("i", 2) + AffineExpr(5);
  AffineExpr B = AffineExpr::variable("i", 2) + AffineExpr::variable("j");
  AffineExpr D = A - B;
  EXPECT_EQ(D.coeff("i"), 0);
  EXPECT_EQ(D.coeff("j"), -1);
  EXPECT_EQ(D.constant(), 5);
  EXPECT_TRUE(AffineExpr(4).isConstant());
  EXPECT_EQ(A.scaled(3).coeff("i"), 6);
}

//===----------------------------------------------------------------------===//
// Dependence tests
//===----------------------------------------------------------------------===//

TEST(Dependence, ZivIndependence) {
  auto P = parse(R"(
double A[10][10];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 10; i++) {
    A[0][i] = 1.0;
    A[1][i] = A[0][i] + 2.0;
  }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  // Only the flow A[0][i] -> read A[0][i] at '=' remains; the two writes to
  // rows 0 and 1 are ZIV-independent.
  for (const Dependence &D : Deps->deps()) {
    EXPECT_EQ(D.Kind, DepKind::Flow);
    EXPECT_EQ(D.Dirs, std::vector<char>{'='});
  }
  EXPECT_FALSE(Deps->deps().empty());
}

TEST(Dependence, StrongSivDistance) {
  auto P = parse(R"(
double A[32];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 4; i < 32; i++)
    A[i] = A[i - 4] * 0.5;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  bool FoundCarried = false;
  for (const Dependence &D : Deps->deps())
    if (D.Kind == DepKind::Flow && D.Dirs == std::vector<char>{'<'})
      FoundCarried = true;
  EXPECT_TRUE(FoundCarried);
}

TEST(Dependence, NonIntegerDistanceMeansIndependent) {
  auto P = parse(R"(
double A[64];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 30; i++)
    A[2 * i] = A[2 * i + 1] + 1.0;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  // 2i = 2i' + 1 has no integer solution: no cross dependence; only the
  // trivially-empty set remains.
  for (const Dependence &D : Deps->deps())
    EXPECT_NE(D.Kind, DepKind::Flow);
}

TEST(Dependence, GcdTestProvesIndependence) {
  auto P = parse(R"(
double A[64];
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < 8; i++)
    for (j = 0; j < 4; j++)
      A[4 * i + 2 * j] = A[4 * i + 2 * j + 1] + 1.0;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  for (const Dependence &D : Deps->deps())
    EXPECT_NE(D.Kind, DepKind::Flow); // gcd(4,2) does not divide 1
}

TEST(Dependence, UnavailableForIndirectAndConditionals) {
  auto Indirect = parse(R"(
double A[16]; int idx[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++)
    A[idx[i]] = 1.0;
}
)");
  EXPECT_FALSE(DependenceInfo::compute(*firstLoop(*Indirect, "r")).has_value());

  auto Conditional = parse(R"(
double A[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++)
    if (i % 2 == 0) {
      A[i] = 1.0;
    }
}
)");
  EXPECT_FALSE(
      DependenceInfo::compute(*firstLoop(*Conditional, "r")).has_value());
}

TEST(Dependence, DeclaredTemporarySubscriptIsNotAffine) {
  // Kripke-style address temporaries: the subscript reads a scalar defined
  // inside the nest, so exact analysis must bail out.
  auto P = parse(R"(
double A[64];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 8; i++) {
    int k = i * 8;
    A[k] = A[k] + 1.0;
  }
}
)");
  EXPECT_FALSE(DependenceInfo::compute(*firstLoop(*P, "r")).has_value());
}

TEST(Dependence, InterchangeLegalityMatrix) {
  // Classic wavefront: direction vector ('<', '>') forbids the swap.
  auto Wave = parse(R"(
double A[16][16];
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 1; i < 16; i++)
    for (j = 0; j < 15; j++)
      A[i][j] = A[i - 1][j + 1] + 1.0;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*Wave, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_TRUE(Deps->interchangeLegal({0, 1}));
  EXPECT_FALSE(Deps->interchangeLegal({1, 0}));
  EXPECT_FALSE(Deps->tilingLegal(0, 1));
  EXPECT_FALSE(Deps->unrollAndJamLegal(0));

  // Forward-only distances permit everything.
  auto Down = parse(R"(
double A[16][16];
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 1; i < 16; i++)
    for (j = 1; j < 16; j++)
      A[i][j] = A[i - 1][j - 1] + 1.0;
}
)");
  auto Deps2 = DependenceInfo::compute(*firstLoop(*Down, "r"));
  ASSERT_TRUE(Deps2.has_value());
  EXPECT_TRUE(Deps2->interchangeLegal({1, 0}));
  EXPECT_TRUE(Deps2->tilingLegal(0, 1));
  EXPECT_TRUE(Deps2->unrollAndJamLegal(0));
}

TEST(Dependence, ReductionScalarMakesLoopSerial) {
  auto P = parse(R"(
double A[16];
double s;
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++)
    s = s + A[i];
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  bool ScalarCarried = false;
  for (const Dependence &D : Deps->deps())
    if (D.IsScalar && D.mayBeCarriedBy(0))
      ScalarCarried = true;
  EXPECT_TRUE(ScalarCarried);
}

TEST(Dependence, StmtGraphOrdersProducersBeforeConsumers) {
  auto P = parse(R"(
double A[16];
double B[16];
double C[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++) {
    A[i] = C[i] * 2.0;
    B[i] = A[i] + 1.0;
  }
}
)");
  ForStmt *Loop = firstLoop(*P, "r");
  auto Deps = DependenceInfo::compute(*Loop);
  ASSERT_TRUE(Deps.has_value());
  auto Graph = Deps->stmtGraph(*Loop);
  ASSERT_EQ(Graph.size(), 2u);
  ASSERT_EQ(Graph[0].size(), 1u);
  EXPECT_EQ(Graph[0][0], 1); // A's definition feeds B's statement
  EXPECT_TRUE(Deps->distributionLegal(*Loop));
}

//===----------------------------------------------------------------------===//
// Weak SIV and symbolic subscripts (previously classified '*')
//===----------------------------------------------------------------------===//

/// True when any dependence connects an access to array \p Name.
bool hasDepOn(const DependenceInfo &Deps, const std::string &Name) {
  for (const Dependence &D : Deps.deps())
    if (D.Array == Name)
      return true;
  return false;
}

TEST(Dependence, WeakZeroSivProvesIndependence) {
  // Write A[5] vs read A[i + 20]: the weak-zero test solves i = 5 - 20,
  // outside [0, 9], so the pair is independent (before this test it was a
  // conservative '*' dependence).
  auto P = parse(R"(
double A[64];
double B[16];
double C[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 10; i++) {
    A[5] = B[i];
    C[i] = A[i + 20];
  }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_FALSE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, WeakZeroSivKeepsRealDependence) {
  // Control: A[i + 2] does hit the constant write when i = 3.
  auto P = parse(R"(
double A[64];
double B[16];
double C[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 10; i++) {
    A[5] = B[i];
    C[i] = A[i + 2];
  }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_TRUE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, WeakZeroSivRangeEndsBeforeTheLimit) {
  // `i <= 9` covers [0, 9]: the constant write A[10] is one past the last
  // iteration (independent), A[9] is the last iteration itself (dependent).
  for (int Target : {10, 9}) {
    auto P = parse(R"(
double A[64];
double B[16];
double C[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i <= 9; i++) {
    A[)" + std::to_string(Target) + R"(] = B[i];
    C[i] = A[i];
  }
}
)");
    auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
    ASSERT_TRUE(Deps.has_value());
    EXPECT_EQ(hasDepOn(*Deps, "A"), Target == 9) << "A[" << Target << "]";
  }
}

TEST(Dependence, WeakCrossingSivProvesIndependence) {
  // A[i] vs A[19 - i]: crossing point at i = 9.5; with i in [0, 9] the sum
  // constraint 19 > 2*9 means the accesses never meet.
  auto P = parse(R"(
double A[32];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 10; i++)
    A[i] = A[19 - i] + 1.0;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_FALSE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, WeakCrossingSivKeepsRealDependence) {
  // Control: A[i] vs A[15 - i] cross inside the iteration space (i = 7.5
  // between iterations 7 and 8).
  auto P = parse(R"(
double A[32];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 10; i++)
    A[i] = A[15 - i] + 1.0;
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_TRUE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, MismatchedSymbolicPartsUseGcd) {
  // A[2i + 2M] vs A[2i + 1]: the symbolic parts differ by 2M - 1, which is
  // odd for every M while the induction coefficients are even — the
  // symbolic GCD test proves independence without knowing M.
  auto P = parse(R"(
double A[256];
double B[64];
int M;
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++) {
    A[2 * i + 2 * M] = 1.0;
    B[i] = A[2 * i + 1];
  }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_FALSE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, MismatchedSymbolicPartsKeepPossibleDependence) {
  // Control: A[2i + 4] vs A[2i + 1]... both even coefficients but the
  // constant difference is odd -> independent; whereas A[2i + 4] vs
  // A[2i + 2] shares parity -> the dependence must survive.
  auto P = parse(R"(
double A[256];
double B[64];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++) {
    A[2 * i + 4] = 1.0;
    B[i] = A[2 * i + 2];
  }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_TRUE(hasDepOn(*Deps, "A"));
}

TEST(Dependence, WhyNotDiagnosticIsLocated) {
  auto P = parse(R"(
double A[16];
int idx[16];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < 16; i++)
    A[idx[i]] = 1.0;
}
)");
  support::Diag Why;
  EXPECT_FALSE(DependenceInfo::compute(*firstLoop(*P, "r"), &Why).has_value());
  EXPECT_FALSE(Why.Message.empty());
  EXPECT_TRUE(Why.Loc.valid()) << Why.render();
}

// The strong-SIV distance of the write/read pair is INT64_MIN / -1 and the
// read/write pair's constant difference overflows: both must stay
// dependent with '*' directions (the accesses are in fact disjoint, but an
// overflowing dimension proves nothing) instead of trapping.
TEST(Dependence, OverflowingConstantsStayDependent) {
  auto Parsed = parseProgram(
      test::slurp(LOCUS_TEST_DATA_DIR "/extreme_constants.c"));
  ASSERT_TRUE(Parsed.ok()) << Parsed.message();
  auto Loops = listOuterLoops(*(*Parsed)->Body);
  ASSERT_EQ(Loops.size(), 1u);
  auto Deps = DependenceInfo::compute(*Loops[0].Loop);
  ASSERT_TRUE(Deps.has_value());
  ASSERT_EQ(Deps->deps().size(), 2u);
  EXPECT_EQ(Deps->deps()[0].Kind, DepKind::Flow);
  EXPECT_EQ(Deps->deps()[1].Kind, DepKind::Anti);
  for (const Dependence &D : Deps->deps())
    EXPECT_EQ(D.Dirs, std::vector<char>{'*'});
}

TEST(Dependence, OverflowingParameterAndGcdDifferencesStayDependent) {
  // Mismatched parameter parts whose coefficient difference overflows, and
  // a two-variable (GCD) subscript whose constant difference overflows.
  auto P = parse(R"(
double A[16][16];
int n;
int main() {
  int i, j;
#pragma @Locus loop=r
  for (i = 0; i < 4; i++)
    for (j = 0; j < 4; j++) {
      A[2 * i + 9223372036854775807 * n][0] = A[2 * i - 9223372036854775807 * n][0];
      A[0][2 * i + 2 * j - 9223372036854775807] = A[0][2 * i + 2 * j + 2];
    }
}
)");
  auto Deps = DependenceInfo::compute(*firstLoop(*P, "r"));
  ASSERT_TRUE(Deps.has_value());
  EXPECT_TRUE(hasDepOn(*Deps, "A"));
}

/// Every direction vector over {<,=,>,*} of length \p K, in order.
std::vector<std::vector<char>> allDirVectors(size_t K) {
  std::vector<std::vector<char>> Out(1);
  for (size_t I = 0; I < K; ++I) {
    std::vector<std::vector<char>> Next;
    for (const std::vector<char> &V : Out)
      for (char C : {'<', '=', '>', '*'}) {
        Next.push_back(V);
        Next.back().push_back(C);
      }
    Out = std::move(Next);
  }
  return Out;
}

// The O(k) emptiness test and mayBeCarriedBy against the 3^k enumeration
// they replace, for every vector up to length 6, every textual order of
// source and destination, and every kind.
TEST(Dependence, PlausibilityChecksMatchTheEnumeration) {
  for (size_t K = 0; K <= 6; ++K)
    for (const std::vector<char> &Dirs : allDirVectors(K))
      for (auto [Src, Dst] : {std::pair{0, 1}, {1, 1}, {1, 0}})
        for (DepKind Kind : {DepKind::Flow, DepKind::Anti, DepKind::Output}) {
          Dependence D;
          D.SrcStmt = Src;
          D.DstStmt = Dst;
          D.Kind = Kind;
          D.Dirs = Dirs;
          std::vector<std::vector<char>> All = D.plausibleVectors();
          std::string Name(Dirs.begin(), Dirs.end());
          ASSERT_EQ(D.hasPlausibleVector(), !All.empty())
              << Name << " " << Src << "->" << Dst << " kind "
              << static_cast<int>(Kind);
          for (size_t Level = 0; Level <= K; ++Level) {
            bool Carried = std::any_of(
                All.begin(), All.end(), [&](const std::vector<char> &V) {
                  size_t First = 0;
                  while (First < V.size() && V[First] == '=')
                    ++First;
                  return First < V.size() && First == Level;
                });
            ASSERT_EQ(D.mayBeCarriedBy(Level), Carried)
                << Name << " level " << Level;
          }
        }
}

} // namespace
} // namespace locus
