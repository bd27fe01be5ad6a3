//===- EntryPlanTest.cpp - Strength-reduced loops against pinned results --===//
//
// Entering a loop proves the subscripts of its strength-reduced accesses
// once per distinct subscript (EntryPlan in src/eval/Evaluator.cpp): the
// subscripts are grouped by extent, loop-variable coefficient and outer
// terms, and a group covers the range of its constants. An access whose
// group fails at an entry checks every iteration instead. These kernels aim
// at the seams of that design: accesses sharing a group where one member
// leaves the array on a later entry, the loop variable in two dimensions
// and with a negative coefficient, unrolled copies where only the last one
// traps, a loop with more distinct subscripts than the plan holds, and
// index arithmetic at the edge of int64_t.
//
// The expected RunResults were recorded with the evaluator before entry
// plans existed, when every entry proved each access's dimensions one by
// one. Cycles and checksum are compared as bit patterns, with the
// op/read/write/iteration counts, the per-level hits and misses, Ok and
// Error, for failed runs too (a trap must come at the same iteration).
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/eval/Evaluator.h"
#include "tests/TestFiles.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace locus {
namespace {

std::string bits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, U);
  return Buf;
}

/// Every compared field of \p R, whether or not the run failed.
std::string describe(const eval::RunResult &R) {
  std::ostringstream O;
  O << "ok=" << R.Ok << " error=" << R.Error << " cycles=" << bits(R.Cycles)
    << " checksum=" << bits(R.Checksum) << " ops=" << R.ArithOps
    << " reads=" << R.MemReads << " writes=" << R.MemWrites
    << " iters=" << R.LoopIterations << " cache=";
  for (const machine::CacheLevelStats &L : R.Cache)
    O << L.Hits << "/" << L.Misses << ";";
  return O.str();
}

/// Reads A and B, whose second subscripts j and j + 2 share one group; on
/// the entries i >= 4 the group fails, but the guarded read stays in bounds.
const char *SharedGuardedSrc = R"(
double A[6][10];
double B[6][10];
double s;
int main() {
  int i, j;
  for (i = 0; i < 6; i++)
    for (j = 0; j < 5 + i; j++) {
      A[i][j] = A[i][j] + i * 0.5 + j;
      if (j < 8)
        B[i][j + 2] = B[i][j + 2] * 0.25 + A[i][j];
    }
}
)";

/// The same group without the guard: B[i][j + 2] leaves B on the entry
/// i = 5, at its last iteration, while A[i][j] stays in bounds.
const char *SharedTrapsSrc = R"(
double A[6][10];
double B[6][10];
int main() {
  int i, j;
  for (i = 0; i < 6; i++)
    for (j = 0; j < 4 + i; j++)
      A[i][j] = A[i][j] + B[i][j + 2] * 0.5;
}
)";

/// The loop variable in two dimensions, and with a negative coefficient.
const char *DiagonalSrc = R"(
double A[8][8];
double v[8];
int main() {
  int i, j;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 6 + i; j++) {
      A[j][j] += v[7 - j] * 0.5;
      v[8 - 1 - j] = A[j][j] - A[j][7 - j];
    }
}
)";

/// As DiagonalSrc, with a last entry (i = 2) that leaves A at j = 8.
const char *DiagonalTrapsSrc = R"(
double A[8][8];
double v[8];
int main() {
  int i, j;
  for (i = 0; i < 3; i++)
    for (j = 0; j < 7 + i; j++) {
      A[j][j] += v[7 - j] * 0.5;
      v[8 - 1 - j] = A[j][j] - A[j][7 - j];
    }
}
)";

/// Unrolled copies along an outer variable (C[i + c][j]) and along the loop
/// variable (C[i][j + c]), all in bounds.
const char *UnrolledSrc = R"(
double C[12][8];
double s;
int main() {
  int i, j;
  for (i = 0; i < 10; i += 4) {
    for (j = 0; j < 8; j++) {
      C[i][j] += 1.0;
      C[i + 1][j] += 2.0;
      C[i + 2][j] += 3.0;
      C[i + 3][j] += 4.0;
    }
    for (j = 0; j < 8; j += 4)
      C[i][j] = C[i][j] + C[i][j + 1] + C[i][j + 2] + C[i][j + 3];
  }
}
)";

/// Four unrolled copies where only the last one, C[i + 3][j], leaves C on
/// the entry i = 8.
const char *UnrolledTrapsSrc = R"(
double C[11][8];
int main() {
  int i, j;
  for (i = 0; i < 10; i += 4)
    for (j = 0; j < 8; j++) {
      C[i][j] += 1.0;
      C[i + 1][j] += 2.0;
      C[i + 2][j] += 3.0;
      C[i + 3][j] += 4.0;
    }
}
)";

/// 70 distinct subscripts in one loop, past the plan's 64 checks; with
/// \p Trips = 3 the subscripts with coefficient 67 and above leave A.
std::string pastCapacitySrc(int Trips) {
  std::string S = "double A[200];\nint main() {\n  int i, j;\n"
                  "  for (i = 0; i < 2; i++)\n    for (j = 0; j < " +
                  std::to_string(Trips) + "; j++) {\n";
  for (int C = 1; C <= 70; ++C)
    S += "      A[" + std::to_string(C) + " * j + " + std::to_string(C) +
         " + i] += " + std::to_string(C) + " * 0.5;\n";
  return S + "    }\n}\n";
}

/// Loop values near INT64_MAX: A's subscript has a constant near INT64_MIN
/// and B's runs backwards from INT64_MAX, so the flat bases wrap.
const char *HugeValuesSrc = R"(
double A[16];
double B[4][16];
int main() {
  int i, j;
  for (i = 0; i < 4; i++)
    for (j = 9223372036854775800; j < 9223372036854775807; j++) {
      A[j - 9223372036854775800] += 1.0;
      B[i][9223372036854775807 - j] = A[j - 9223372036854775798] + i;
    }
}
)";

/// j + k overflows int64_t although j - 2^63 + k is the in-bounds index
/// 8..11: the proof overflows, so the access checks every iteration.
const char *ProofOverflowSrc = R"(
double A[16];
int main() {
  int i, j, k;
  k = 4611686018427387904;
  for (i = 0; i < 2; i++)
    for (j = 4611686018427387912; j < 4611686018427387916; j++)
      A[j - 9223372036854775807 - 1 + k] += 1.0 + i;
}
)";

struct Kernel {
  std::string Name;
  std::string Src;
};

std::vector<Kernel> kernels() {
  return {{"shared_guarded", SharedGuardedSrc},
          {"shared_traps", SharedTrapsSrc},
          {"diagonal", DiagonalSrc},
          {"diagonal_traps", DiagonalTrapsSrc},
          {"unrolled", UnrolledSrc},
          {"unrolled_traps", UnrolledTrapsSrc},
          {"past_capacity", pastCapacitySrc(2)},
          {"past_capacity_traps", pastCapacitySrc(3)},
          {"huge_values", HugeValuesSrc},
          {"proof_overflow", ProofOverflowSrc},
          {"extreme_constants",
           test::slurp(LOCUS_TEST_DATA_DIR "/extreme_constants.c")}};
}

struct Setting {
  std::string Name;
  eval::EvalOptions Opts;
};

std::vector<Setting> settings() {
  eval::EvalOptions Tiny, Xeon, NoCost;
  Tiny.Machine = machine::MachineConfig::tiny();
  Xeon.Machine = machine::MachineConfig::xeonE5v3();
  NoCost.CountCost = false;
  return {{"tiny", Tiny}, {"xeon", Xeon}, {"nocost", NoCost}};
}

const std::map<std::string, std::string> &expected() {
  static const std::map<std::string, std::string> E = {
      {"shared_guarded@tiny",
       "ok=1 error="
       " cycles=40a4290000000000 checksum=407b26ed31e56c12"
       " ops=219 reads=129 writes=87 iters=51 cache=200/16;0/16;"},
      {"shared_guarded@xeon",
       "ok=1 error="
       " cycles=40b5a48000000000 checksum=407b26ed31e56c12"
       " ops=219 reads=129 writes=87 iters=51 cache=200/16;0/16;0/16;"},
      {"shared_guarded@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=407b26ed31e56c12"
       " ops=219 reads=129 writes=87 iters=51 cache="},
      {"shared_traps@tiny",
       "ok=0 error=index 10 out of bounds for B dim 1 (size 10)"
       " cycles=409daf0000000000 checksum=403d148f6b90ac82"
       " ops=76 reads=77 writes=38 iters=45 cache=99/16;0/16;"},
      {"shared_traps@xeon",
       "ok=0 error=index 10 out of bounds for B dim 1 (size 10)"
       " cycles=40b19d4000000000 checksum=403d148f6b90ac82"
       " ops=76 reads=77 writes=38 iters=45 cache=99/16;0/16;0/16;"},
      {"shared_traps@nocost",
       "ok=0 error=index 10 out of bounds for B dim 1 (size 10)"
       " cycles=0000000000000000 checksum=403d148f6b90ac82"
       " ops=76 reads=77 writes=38 iters=45 cache="},
      {"diagonal@tiny",
       "ok=1 error="
       " cycles=4092d80000000000 checksum=402c9fd7e1e96f12"
       " ops=63 reads=84 writes=42 iters=24 cache=117/9;0/9;"},
      {"diagonal@xeon",
       "ok=1 error="
       " cycles=40a5960000000000 checksum=402c9fd7e1e96f12"
       " ops=63 reads=84 writes=42 iters=24 cache=117/9;0/9;0/9;"},
      {"diagonal@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=402c9fd7e1e96f12"
       " ops=63 reads=84 writes=42 iters=24 cache="},
      {"diagonal_traps@tiny",
       "ok=0 error=index 8 out of bounds for A dim 0 (size 8)"
       " cycles=4093280000000000 checksum=402cd7417114cf9a"
       " ops=69 reads=92 writes=46 iters=27 cache=129/9;0/9;"},
      {"diagonal_traps@xeon",
       "ok=0 error=index 8 out of bounds for A dim 0 (size 8)"
       " cycles=40a5d60000000000 checksum=402cd7417114cf9a"
       " ops=69 reads=92 writes=46 iters=27 cache=129/9;0/9;0/9;"},
      {"diagonal_traps@nocost",
       "ok=0 error=index 8 out of bounds for A dim 0 (size 8)"
       " cycles=0000000000000000 checksum=402cd7417114cf9a"
       " ops=69 reads=92 writes=46 iters=27 cache="},
      {"unrolled@tiny",
       "ok=1 error="
       " cycles=4097970000000000 checksum=407260a87e5ec714"
       " ops=114 reads=120 writes=102 iters=33 cache=210/12;0/12;"},
      {"unrolled@xeon",
       "ok=1 error="
       " cycles=40ab9d8000000000 checksum=407260a87e5ec714"
       " ops=114 reads=120 writes=102 iters=33 cache=210/12;0/12;0/12;"},
      {"unrolled@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=407260a87e5ec714"
       " ops=114 reads=120 writes=102 iters=33 cache="},
      {"unrolled_traps@tiny",
       "ok=0 error=index 11 out of bounds for C dim 0 (size 11)"
       " cycles=4094cc0000000000 checksum=4068101c150fcbd9"
       " ops=67 reads=67 writes=67 iters=20 cache=123/11;0/11;"},
      {"unrolled_traps@xeon",
       "ok=0 error=index 11 out of bounds for C dim 0 (size 11)"
       " cycles=40a8a10000000000 checksum=4068101c150fcbd9"
       " ops=67 reads=67 writes=67 iters=20 cache=123/11;0/11;0/11;"},
      {"unrolled_traps@nocost",
       "ok=0 error=index 11 out of bounds for C dim 0 (size 11)"
       " cycles=0000000000000000 checksum=4068101c150fcbd9"
       " ops=67 reads=67 writes=67 iters=20 cache="},
      {"past_capacity@tiny",
       "ok=1 error="
       " cycles=40b0380000000000 checksum=40b3bd05c4533e71"
       " ops=560 reads=280 writes=280 iters=6 cache=536/24;6/18;"},
      {"past_capacity@xeon",
       "ok=1 error="
       " cycles=40bf780000000000 checksum=40b3bd05c4533e71"
       " ops=560 reads=280 writes=280 iters=6 cache=542/18;0/18;0/18;"},
      {"past_capacity@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=40b3bd05c4533e71"
       " ops=560 reads=280 writes=280 iters=6 cache="},
      {"past_capacity_traps@tiny",
       "ok=0 error=index 201 out of bounds for A dim 0 (size 200)"
       " cycles=40b10b0000000000 checksum=40acb30b88a67ce0"
       " ops=412 reads=206 writes=206 iters=4 cache=381/31;6/25;"},
      {"past_capacity_traps@xeon",
       "ok=0 error=index 201 out of bounds for A dim 0 (size 200)"
       " cycles=40c1ba8000000000 checksum=40acb30b88a67ce0"
       " ops=412 reads=206 writes=206 iters=4 cache=387/25;0/25;0/25;"},
      {"past_capacity_traps@nocost",
       "ok=0 error=index 201 out of bounds for A dim 0 (size 200)"
       " cycles=0000000000000000 checksum=40acb30b88a67ce0"
       " ops=412 reads=206 writes=206 iters=4 cache="},
      {"huge_values@tiny",
       "ok=1 error="
       " cycles=4090580000000000 checksum=405b9db648b688e8"
       " ops=56 reads=56 writes=56 iters=32 cache=106/6;0/6;"},
      {"huge_values@xeon",
       "ok=1 error="
       " cycles=40a1540000000000 checksum=405b9db648b688e8"
       " ops=56 reads=56 writes=56 iters=32 cache=106/6;0/6;0/6;"},
      {"huge_values@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=405b9db648b688e8"
       " ops=56 reads=56 writes=56 iters=32 cache="},
      {"proof_overflow@tiny",
       "ok=1 error="
       " cycles=4060d00000000000 checksum=4029bd4dfa7bdce6"
       " ops=16 reads=8 writes=8 iters=10 cache=15/1;0/1;"},
      {"proof_overflow@xeon",
       "ok=1 error="
       " cycles=4072e00000000000 checksum=4029bd4dfa7bdce6"
       " ops=16 reads=8 writes=8 iters=10 cache=15/1;0/1;0/1;"},
      {"proof_overflow@nocost",
       "ok=1 error="
       " cycles=0000000000000000 checksum=4029bd4dfa7bdce6"
       " ops=16 reads=8 writes=8 iters=10 cache="},
      {"extreme_constants@tiny",
       "ok=0 error=index -1 out of bounds for A dim 0 (size 16)"
       " cycles=4000000000000000 checksum=3febd4dfa7bdce5b"
       " ops=0 reads=0 writes=0 iters=1 cache=0/0;0/0;"},
      {"extreme_constants@xeon",
       "ok=0 error=index -1 out of bounds for A dim 0 (size 16)"
       " cycles=4000000000000000 checksum=3febd4dfa7bdce5b"
       " ops=0 reads=0 writes=0 iters=1 cache=0/0;0/0;0/0;"},
      {"extreme_constants@nocost",
       "ok=0 error=index -1 out of bounds for A dim 0 (size 16)"
       " cycles=0000000000000000 checksum=3febd4dfa7bdce5b"
       " ops=0 reads=0 writes=0 iters=1 cache="}};
  return E;
}

TEST(EntryPlan, MatchesPerAccessProof) {
  std::string Mismatches;
  for (const Kernel &K : kernels()) {
    auto P = cir::parseProgram(K.Src);
    ASSERT_TRUE(P.ok()) << K.Name << ": " << P.message();
    for (const Setting &S : settings()) {
      std::string Key = K.Name + "@" + S.Name;
      eval::ProgramEvaluator Eval(**P, S.Opts);
      ASSERT_TRUE(Eval.prepare().ok()) << Key;
      // A second run starts from the plan state the first one left.
      for (int Run = 0; Run < 2; ++Run) {
        std::string Got = describe(Eval.run());
        auto It = expected().find(Key);
        if (It == expected().end() || It->second != Got) {
          Mismatches += "    {\"" + Key + "\",\n     \"" + Got + "\"},\n";
          break;
        }
      }
    }
  }
  EXPECT_TRUE(Mismatches.empty()) << "RunResults differ:\n" << Mismatches;
}

} // namespace
} // namespace locus
