//===- TestPrograms.h - Small programs several suites tune ------*- C++ -*-===//
#ifndef LOCUS_TESTS_TESTPROGRAMS_H
#define LOCUS_TESTS_TESTPROGRAMS_H

#include <sstream>
#include <string>

namespace locus {
namespace test {

/// A dependent range over dgemm's `matmul` region: of the 9 points of
/// tile x tf in {2,4,8}^2, the three with tf > tile violate
/// tf = poweroftwo(2..tile).
inline const char *DependentRangeLocus = R"(
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

/// Region `pair` with one provably-safe loop ("0") and one provably-racy
/// loop ("1", an in-place prefix scan).
inline const char *TwoLoopSource = R"(
#define N 48
double A[N];
double B[N];
double V[N];
int main() {
  int i, j;
#pragma @Locus block=pair
  for (i = 0; i < N; i++)
    B[i] = A[i] * 2.0 + 1.0;
  for (j = 1; j < N; j++)
    V[j] = V[j - 1] + B[j];
#pragma @Locus endblock
}
)";

/// Parallelizes one loop of TwoLoopSource, chosen from \p Loops (a list of
/// quoted loop indices).
inline std::string ompForChoice(const std::string &Loops) {
  return std::string(R"(
Search {
  buildcmd = "make";
  runcmd = "./pair";
}

CodeReg pair {
  which = enum()") +
         Loops + R"();
  Pragma.OMPFor(loop=which);
}
)";
}

inline const char *const SimdPragmas[] = {"", "ivdep", "vector always"};
inline const char *const SimdShapes[] = {"unit", "strided", "negated",
                                        "indirect", "carried"};

/// SIMD-model programs: unit and non-unit stride, proven independent (with
/// negations, charged before their operand loads), unanalyzable (indirect)
/// and proven-dependent innermost loops, each under \p Pragma (empty,
/// "ivdep" or "vector always"); \p Shape is one of SimdShapes.
inline std::string vectorSource(const std::string &Pragma,
                                const std::string &Shape) {
  std::ostringstream O;
  O << "double A[32][32];\ndouble B[32][32];\nint idx[32];\nint main() {\n"
       "  int i, j;\n  for (i = 0; i < 32; i++) {\n";
  if (!Pragma.empty())
    O << "#pragma " << Pragma << "\n";
  if (Shape == "unit")
    O << "    for (j = 0; j < 32; j++)\n      A[i][j] = A[i][j] + B[i][j];\n";
  else if (Shape == "strided")
    O << "    for (j = 0; j < 32; j++)\n      A[j][i] = A[j][i] + B[i][j];\n";
  else if (Shape == "negated")
    O << "    for (j = 0; j < 32; j++)\n"
         "      A[i][j] = -B[i][j] * 0.5 + -A[i][j];\n";
  else if (Shape == "indirect")
    O << "    for (j = 0; j < 32; j++)\n"
         "      A[i][idx[j]] = A[i][idx[j]] + B[i][j];\n";
  else // carried dependence
    O << "    for (j = 1; j < 32; j++)\n"
         "      A[i][j] = A[i][j - 1] + B[i][j];\n";
  O << "  }\n}\n";
  return O.str();
}

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_TESTPROGRAMS_H
