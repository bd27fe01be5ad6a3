//===- CirParserTest.cpp - MiniC front end tests ---------------------------===//

#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace locus {
namespace cir {
namespace {

const char *MatmulSource = R"(
#define M 16
#define N 16
#define K 16
double A[M][K];
double B[K][N];
double C[M][N];
double alpha;
double beta;

int main()
{
  int i, j, k;
  double t_start, t_end;
  init_array();
  t_start = rtclock();
#pragma @Locus loop=matmul
  for (i = 0; i < M; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < K; k++)
        C[i][j] = beta * C[i][j] + alpha * A[i][k] * B[k][j];
  t_end = rtclock();
  print_array();
  return 0;
}
)";

TEST(CirParser, ParsesMatmulWithRegion) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  std::vector<Block *> Regions = (*Prog)->findRegions("matmul");
  ASSERT_EQ(Regions.size(), 1u);
  ASSERT_EQ(Regions[0]->Stmts.size(), 1u);
  auto *Loop = dyn_cast<ForStmt>(Regions[0]->Stmts[0].get());
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Var, "i");
  EXPECT_TRUE(isPerfectNest(*Loop));
  EXPECT_EQ(loopNestDepth(*Loop), 3);
}

TEST(CirParser, DefinesResolveArrayDims) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  const DeclStmt *A = (*Prog)->findGlobal("A");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Dims, (std::vector<int64_t>{16, 16}));
  EXPECT_EQ(A->Elem, ElemType::Double);
}

TEST(CirParser, BlockRegion) {
  const char *Src = R"(
double x;
int main() {
#pragma @Locus block=body
  x = 1.0;
  x = x + 2.0;
#pragma @Locus endblock
  return 0;
}
)";
  auto Prog = parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  std::vector<Block *> Regions = (*Prog)->findRegions("body");
  ASSERT_EQ(Regions.size(), 1u);
  EXPECT_EQ(Regions[0]->Stmts.size(), 2u);
}

TEST(CirParser, UnterminatedBlockIsError) {
  const char *Src = R"(
double x;
int main() {
#pragma @Locus block=body
  x = 1.0;
}
)";
  auto Prog = parseProgram(Src);
  EXPECT_FALSE(Prog.ok());
}

TEST(CirParser, LoopAnnotationRequiresFor) {
  const char *Src = R"(
double x;
int main() {
#pragma @Locus loop=oops
  x = 1.0;
}
)";
  auto Prog = parseProgram(Src);
  EXPECT_FALSE(Prog.ok());
}

/// strtoll saturates out-of-range text to INT64_MAX; the lexer must refuse
/// it with the line instead of silently changing the program.
TEST(CirParser, OutOfRangeIntegerLiteralIsALocatedError) {
  auto Literal = parseProgram(R"(double A[4];
int main() {
  int i;
  for (i = 0; i < 99999999999999999999; i++)
    A[0] = 1.0;
  return 0;
}
)");
  ASSERT_FALSE(Literal.ok());
  EXPECT_NE(Literal.message().find("line 4: integer literal out of range"),
            std::string::npos)
      << Literal.message();

  auto Define = parseProgram(R"(double A[4];
#define BIG 99999999999999999999
int main() { return 0; }
)");
  ASSERT_FALSE(Define.ok());
  EXPECT_NE(Define.message().find("line 2: integer literal out of range"),
            std::string::npos)
      << Define.message();

  auto Edge = parseProgram("#define BIG 9223372036854775807\n"
                           "int main() { int i; i = BIG; return 0; }\n");
  EXPECT_TRUE(Edge.ok()) << "INT64_MAX itself is in range: "
                         << Edge.message();
}

/// A string literal that never closes is reported at its opening line, not
/// as a parse error at the end of the file it swallowed.
TEST(CirParser, UnterminatedStringIsReportedAtItsLine) {
  auto P = parseProgram(R"(double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[i] = 1.0;
  for (i = 0; i < 4; i++)
    A[i] = A[i] * 2.0;
  printf("unterminated);
  A[0] = 3.0;
  return 0;
}
)");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.message().find("line 8: unterminated string literal"),
            std::string::npos)
      << P.message();
}

TEST(CirParser, OrdinaryPragmasAttachToNextStmt) {
  const char *Src = R"(
double A[8];
int main() {
  int i;
#pragma ivdep
#pragma vector always
  for (i = 0; i < 8; i++)
    A[i] = 0.0;
}
)";
  auto Prog = parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  ASSERT_FALSE((*Prog)->Body->Stmts.empty());
  Stmt *Last = (*Prog)->Body->Stmts.back().get();
  ASSERT_TRUE(isa<ForStmt>(Last));
  ASSERT_EQ(Last->Pragmas.size(), 2u);
  EXPECT_EQ(Last->Pragmas[0], "ivdep");
  EXPECT_EQ(Last->Pragmas[1], "vector always");
}

TEST(CirParser, ForVariants) {
  const char *Src = R"(
double A[32];
int main() {
  for (int t = 2; t <= 30; t += 2)
    A[t] = 1.0;
}
)";
  auto Prog = parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  auto *Loop = dyn_cast<ForStmt>((*Prog)->Body->Stmts.back().get());
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Step, 2);
  EXPECT_EQ(Loop->Op, BoundOp::Le);
}

TEST(CirParser, ModuloAndNestedIndexing) {
  const char *Src = R"(
#define T 4
#define N 8
double A[2][N][N];
int main() {
  int t, i, j;
  for (t = 0; t < T; t++)
    for (i = 1; i < N - 1; i++)
      for (j = 1; j < N - 1; j++)
        A[(t + 1) % 2][i][j] = 0.125 * (A[t % 2][i + 1][j] - 2.0 * A[t % 2][i][j] + A[t % 2][i - 1][j]);
}
)";
  auto Prog = parseProgram(Src);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
}

TEST(CirParser, SyntaxErrorsReportLine) {
  auto Prog = parseProgram("int main() { for (i = 0; i > 10; i--) {} }");
  ASSERT_FALSE(Prog.ok());
  EXPECT_NE(Prog.message().find("line"), std::string::npos);
}

TEST(CirPrinter, RoundTripsMatmul) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  std::string Printed = printProgram(**Prog);
  auto Reparsed = parseProgram(Printed);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.message() << "\n" << Printed;
  EXPECT_EQ(Printed, printProgram(**Reparsed));
  // Region survives the round trip.
  EXPECT_EQ((*Reparsed)->findRegions("matmul").size(), 1u);
}

TEST(CirPrinter, PreservesPrecedence) {
  auto Prog = parseProgram(
      "double x; double y; int main() { x = (x + y) * (x - y) / (x * y); }");
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  std::string Printed = printProgram(**Prog);
  EXPECT_NE(Printed.find("(x + y) * (x - y) / (x * y)"), std::string::npos)
      << Printed;
}

// The printed text is hashed into locus-evalcache keys, so literals must
// keep the bytes of ostream's default formatting (%g, precision 6), with
// ".0" appended when the result would read as an integer.
TEST(CirPrinter, LiteralsMatchOstreamFormatting) {
  auto Reference = [](double V) {
    std::ostringstream Num;
    Num << V;
    std::string Text = Num.str();
    if (Text.find('.') == std::string::npos &&
        Text.find('e') == std::string::npos &&
        Text.find("inf") == std::string::npos)
      Text += ".0";
    return Text;
  };
  const double Values[] = {0.1,
                           2.0,
                           1e-7,
                           1e21,
                           1.5e300,
                           -0.0,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           0.0,
                           0.33333,
                           123456.0,
                           1234567.0,
                           0.0001,
                           0.00001,
                           -2.5e-310,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           1.0 / 3.0,
                           999999.5};
  for (double V : Values)
    EXPECT_EQ(printExpr(FloatLit(V)), Reference(V)) << V;
  for (int64_t V : {int64_t{0}, int64_t{-7}, int64_t{1} << 40,
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::ostringstream Num;
    Num << V;
    EXPECT_EQ(printExpr(IntLit(V)), Num.str());
  }
}

TEST(PathIndex, ResolvesHierarchicalPaths) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  Block *Region = (*Prog)->findRegions("matmul")[0];

  auto Outer = resolveLoopPath(*Region, "0");
  ASSERT_TRUE(Outer.ok()) << Outer.message();
  EXPECT_EQ((*Outer)->Var, "i");

  auto Inner = resolveLoopPath(*Region, "0.0.0");
  ASSERT_TRUE(Inner.ok()) << Inner.message();
  EXPECT_EQ((*Inner)->Var, "k");

  EXPECT_FALSE(resolveLoopPath(*Region, "1").ok());
  EXPECT_FALSE(resolveLoopPath(*Region, "0.0.0.0").ok());
  EXPECT_FALSE(resolvePath(*Region, "0.x").ok());
}

TEST(PathIndex, InnerAndOuterLoops) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  Block *Region = (*Prog)->findRegions("matmul")[0];

  std::vector<LoopEntry> Inner = listInnerLoops(*Region);
  ASSERT_EQ(Inner.size(), 1u);
  EXPECT_EQ(Inner[0].Path, "0.0.0");
  EXPECT_EQ(Inner[0].Loop->Var, "k");

  std::vector<LoopEntry> Outer = listOuterLoops(*Region);
  ASSERT_EQ(Outer.size(), 1u);
  EXPECT_EQ(Outer[0].Path, "0");
}

TEST(AstUtils, SubstituteAndFold) {
  auto Prog = parseProgram("double A[8]; int main() { int i; A[i + 0 * 4] = 1.0; }");
  ASSERT_TRUE(Prog.ok()) << Prog.message();
  Stmt *Assign = (*Prog)->Body->Stmts.back().get();
  substituteVarInStmt(*Assign, "i", *makeInt(3));
  forEachExpr(*Assign, [](ExprPtr &E) { E = foldExpr(std::move(E)); });
  EXPECT_EQ(printStmt(*Assign), "A[3] = 1.0;\n");
}

TEST(AstUtils, RegionHashDetectsChange) {
  auto P1 = parseProgram(MatmulSource);
  ASSERT_TRUE(P1.ok());
  uint64_t H1 = hashRegion(*(*P1)->findRegions("matmul")[0]);
  uint64_t H1Again = hashRegion(*(*P1)->findRegions("matmul")[0]);
  EXPECT_EQ(H1, H1Again);

  std::string Changed = MatmulSource;
  size_t Pos = Changed.find("beta * C");
  ASSERT_NE(Pos, std::string::npos);
  Changed.replace(Pos, 4, "alpha");
  auto P2 = parseProgram(Changed);
  ASSERT_TRUE(P2.ok());
  uint64_t H2 = hashRegion(*(*P2)->findRegions("matmul")[0]);
  EXPECT_NE(H1, H2);
}

TEST(AstUtils, CloneIsDeep) {
  auto Prog = parseProgram(MatmulSource);
  ASSERT_TRUE(Prog.ok());
  auto Copy = (*Prog)->clone();
  Block *Region = Copy->findRegions("matmul")[0];
  auto *Loop = cast<ForStmt>(Region->Stmts[0].get());
  Loop->Var = "z";
  auto *Orig = cast<ForStmt>((*Prog)->findRegions("matmul")[0]->Stmts[0].get());
  EXPECT_EQ(Orig->Var, "i");
}

} // namespace
} // namespace cir
} // namespace locus
