//===- TestPrograms.h - Small programs several suites tune ------*- C++ -*-===//
#ifndef LOCUS_TESTS_TESTPROGRAMS_H
#define LOCUS_TESTS_TESTPROGRAMS_H

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

} // namespace test
} // namespace locus

#endif // LOCUS_TESTS_TESTPROGRAMS_H
