//===- EvalParityTest.cpp - Golden RunResults for the MiniC evaluator -----===//
//
// The evaluator's contract is bit-identical RunResults: every search
// trajectory, journal and cache key downstream depends on the exact cycle
// count and checksum of each variant. This suite runs a fixed corpus
// (PolyBench, dgemm, stencils, Kripke, materialized Fig. 5/7/9/11/13
// variants, the Table I nests, OpenMP/SIMD model programs and every runtime
// failure path) on the tiny, xeon and scaled-xeon machines and compares each
// RunResult with tests/data/eval_golden.txt: cycles and checksum as bit
// patterns, the op/read/write/iteration counts, the per-level hits and
// misses and the warnings of a successful run, and Ok plus Error of a
// failed one.
//
// Regenerating the golden file (only when a change to the numbers is
// intended):
//
//   LOCUS_WRITE_GOLDEN=tests/data/eval_golden.txt build/tests/locus_tests
//       --gtest_filter=EvaluatorParity.MatchesGoldenRunResults
//
//===----------------------------------------------------------------------===//

#include "src/analysis/RangeAnalysis.h"
#include "src/cir/Parser.h"
#include "src/eval/Evaluator.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Modules.h"
#include "src/search/PointCodec.h"
#include "src/search/Search.h"
#include "src/support/Rng.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace locus {
namespace {

using InitFn = std::function<void(eval::ProgramEvaluator &)>;

struct Case {
  std::string Name;
  std::shared_ptr<const cir::Program> Prog;
  eval::EvalOptions Opts;
  InitFn Init;
};

std::string bits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64, U);
  return Buf;
}

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\n')
      Out += "\\n";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\\')
      Out += "\\\\";
    else
      Out += C;
  }
  return Out;
}

/// The compared fields of one RunResult as one line.
std::string describe(const eval::RunResult &R) {
  std::ostringstream O;
  O << "ok=" << R.Ok;
  if (!R.Ok) {
    O << " error=" << escape(R.Error);
  } else {
    O << " cycles=" << bits(R.Cycles) << " checksum=" << bits(R.Checksum)
      << " ops=" << R.ArithOps << " reads=" << R.MemReads
      << " writes=" << R.MemWrites << " iters=" << R.LoopIterations
      << " cache=";
    for (const machine::CacheLevelStats &L : R.Cache)
      O << L.Hits << "/" << L.Misses << ";";
  }
  O << " warnings=";
  for (const std::string &W : R.Warnings)
    O << escape(W) << "|";
  return O.str();
}

eval::RunResult runCase(const Case &C) {
  eval::ProgramEvaluator Eval(*C.Prog, C.Opts);
  Status S = Eval.prepare();
  if (!S.ok()) {
    eval::RunResult R;
    R.Error = S.message();
    return R;
  }
  if (C.Init)
    C.Init(Eval);
  return Eval.run();
}

std::shared_ptr<const cir::Program> parse(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message() << "\n" << Src;
  if (!P.ok())
    return nullptr;
  return std::shared_ptr<const cir::Program>(std::move(*P));
}

/// The tiny machine with costs that are not dyadic fractions. On the stock
/// machines every charge is a multiple of 1/8 and their sum is exact in any
/// order; here rounding makes the order of the cycle additions visible.
machine::MachineConfig oddCosts() {
  machine::MachineConfig M = machine::MachineConfig::tiny();
  M.ArithCost = 0.3;
  M.LoopOverhead = 1.7;
  M.VectorWidthDoubles = 3;
  M.Cores = 3;
  M.ParallelSpawnOverhead = 333.3;
  M.DynamicChunkOverhead = 17.1;
  return M;
}

const std::vector<std::pair<std::string, machine::MachineConfig>> &
machines() {
  static const std::vector<std::pair<std::string, machine::MachineConfig>> M =
      {{"tiny", machine::MachineConfig::tiny()},
       {"xeon", machine::MachineConfig::xeonE5v3()},
       {"xeon8", machine::MachineConfig::xeonE5v3Scaled(8)},
       {"odd", oddCosts()}};
  return M;
}

machine::MachineConfig machineNamed(const std::string &Name) {
  for (const auto &[N, M] : machines())
    if (N == Name)
      return M;
  ADD_FAILURE() << "unknown machine " << Name;
  return machine::MachineConfig::tiny();
}

class Corpus {
public:
  std::vector<Case> Cases;

  /// Adds \p Prog once per listed machine.
  void add(const std::string &Name, std::shared_ptr<const cir::Program> Prog,
           const std::vector<std::string> &On = {"tiny", "xeon", "xeon8"},
           eval::EvalOptions Base = eval::EvalOptions(), InitFn Init = {}) {
    if (!Prog)
      return;
    for (const std::string &M : On) {
      eval::EvalOptions Opts = Base;
      Opts.Machine = machineNamed(M);
      Cases.push_back({Name + "@" + M, Prog, Opts, Init});
    }
  }

  void addSource(const std::string &Name, const std::string &Src,
                 const std::vector<std::string> &On = {"tiny", "xeon",
                                                        "xeon8"},
                 eval::EvalOptions Base = eval::EvalOptions()) {
    add(Name, parse(Src), On, Base);
  }

  /// Materializes up to \p Count distinct seeded points of \p LocusSrc over
  /// \p Src and adds each variant that applies.
  void addVariants(const std::string &Name, const std::string &Src,
                   const std::string &LocusSrc, int Count, uint64_t Seed,
                   const std::vector<std::string> &On,
                   const std::map<std::string, std::string> &Snippets = {},
                   InitFn Init = {}) {
    auto Base = parse(Src);
    auto LP = lang::parseLocusProgram(LocusSrc);
    ASSERT_TRUE(Base && LP.ok()) << Name << ": " << LP.message();
    lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
    lang::LocusInterpreter Interp(**LP, Registry);
    search::Space Space;
    std::unique_ptr<cir::Program> Target = Base->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Target.get();
    TCtx.Snippets = Snippets;
    ASSERT_TRUE(Interp.extractSpace(*Target, Space, TCtx).Ok) << Name;
    Rng R(Seed);
    std::set<std::string> Seen;
    for (int I = 0; I < Count; ++I) {
      search::Point P = search::samplePoint(Space, R);
      std::string Text = search::serializePoint(P);
      std::replace(Text.begin(), Text.end(), '\n', ';');
      std::unique_ptr<cir::Program> V = Base->clone();
      TCtx.Prog = V.get();
      if (!Seen.insert(Text).second || !Interp.applyPoint(*V, P, TCtx).Ok)
        continue;
      add(Name + "[" + Text + "]",
          std::shared_ptr<const cir::Program>(std::move(V)), On,
          eval::EvalOptions(), Init);
    }
  }
};

//===----------------------------------------------------------------------===//
// Hand-written programs
//===----------------------------------------------------------------------===//

/// Every expression and statement form of MiniC the evaluator accepts.
const char *SemanticsSrc = R"(
double A[8][9];
int B[10];
double s;
int t;
double alpha;
int main() {
  int i, j, n = 7;
  double t0 = rtclock();
  init_array();
  for (i = 0; i < 8; i++)
    for (j = 0; j <= n; j += 2) {
      A[i][j] = A[i][j] * alpha + i - j / 3.0;
      A[i][j + 1] -= A[i][j] * 0.5;
      B[i] += i * j % 5 - i / (j + 1);
      B[i + 1] *= 2;
      B[i + 2] -= 1;
      if (i < 4 && B[i] > 3 || !(j == 2))
        s = s + A[i][j];
      else
        s -= 1.0;
      t = min(i, j) + max(i, -j);
      t += -t * 2;
      t -= 3;
      t *= 2;
      A[j][i] *= max(0.5, min(A[i][j], 2.0));
      A[i][8] = min(i, 3.5) + max(-A[i][0], j);
      if (A[i][j])
        s *= 1.0001;
      tmp = A[i][j] / (j + 1.0);
      A[7][j] += tmp - -tmp;
    }
  for (i = 0; i < 10; i++)
    if (i < 8 && B[i] > 2)
      s += 1.0;
  for (i = 0; i < 10; i++)
    if (i >= 8 || B[i] > 2)
      s += 2.0;
  for (i = 0; i < 5; i++) {
  }
  B[9] = i + t;
  for (i = 3; i < 3; i++)
    B[9] = 100;
  B[8] = i;
  for (i = 0; i < 10; i++) {
    B[0] += i;
    i += 1;
  }
  B[1] = i + (A[0][0] < A[1][1]) + (A[0][0] >= 0.5) + (s != s) + (t == 4);
  print_array();
  free(A);
}
)";

/// Subscripts the evaluator strength-reduces per loop, and the cases where
/// it must not: guarded out-of-range endpoints, subscript variables the
/// loop body assigns, strided and multi-variable forms.
const char *StrengthReductionSrc = R"(
double A[12][10];
double v[48];
int idx[10];
double s;
int main() {
  int i, j, k, off, last;
  for (i = 0; i < 12; i++) {
    off = i * 3;
    for (j = 0; j < 10; j++)
      v[off + j % 4] += A[i][9 - j];
    for (j = 0; j < 10; j += 3)
      A[i][j] = A[i][j] * 0.5 + v[off + j];
  }
  for (i = 0; i < 12; i++)
    for (j = 0; j < 12; j++)
      if (j < 10)
        s += A[i][j];
  for (i = 0; i < 12; i++) {
    for (k = 0; k < 3; k++)
      last = k + i;
    A[i][last % 10] -= 1.0;
    A[i][k + 2] += 2.0;
    off = i % 10;
    for (j = 0; j < 10; j++) {
      A[i][off] += A[9 - j][j];
      off = j;
    }
  }
  for (i = 0; i < 4; i++)
    for (j = 0; j < 10; j++)
      A[2 * i + 1][j] = A[2 * i][j] + v[i * 10 + j] * idx[j];
}
)";

struct NamedSource {
  const char *Name;
  const char *Src;
};

/// One program per runtime failure path.
const NamedSource FailureSources[] = {
    {"oob_read_dim0", R"(
double A[4][5];
double s;
int main() {
  int i;
  for (i = 0; i < 5; i++)
    s += A[i][0];
}
)"},
    {"oob_read_dim1", R"(
double A[4][5];
double s;
int main() {
  int i;
  for (i = 0; i < 4; i++)
    s += A[0][i + 2];
}
)"},
    {"oob_read_negative", R"(
double A[4][5];
double s;
int main() {
  int i;
  for (i = 0; i < 4; i++)
    s += A[i - 1][0];
}
)"},
    {"oob_read_int_subscript", R"(
double A[16];
int B[8];
double s;
int main() {
  int i;
  for (i = 0; i < 8; i++)
    s += A[B[i] + 5];
}
)"},
    {"oob_strided_last_iteration", R"(
double A[4][10];
double s;
int main() {
  int i, j;
  for (i = 0; i < 4; i++)
    for (j = 0; j < 11; j += 5)
      s += A[i][j];
}
)"},
    {"oob_write_dim0", R"(
double A[4][5];
int main() {
  int i;
  for (i = 0; i < 5; i++)
    A[i][1] = 1.0;
}
)"},
    {"oob_write_dim1", R"(
double A[4][5];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[1][i * 2] += 1.0;
}
)"},
    {"oob_write_before_rhs", R"(
double A[4][5];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[i][i + 2] = A[i + 1][0];
}
)"},
    {"oob_int_array_write", R"(
int B[6];
int main() {
  int i;
  for (i = 0; i < 7; i++)
    B[i] = i;
}
)"},
    {"div_by_zero", R"(
int t;
double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i++) {
    A[i] = 1.0;
    t = 10 / (i - 2);
  }
}
)"},
    {"mod_by_zero", R"(
int t;
double A[5];
int main() {
  int i;
  for (i = 0; i < 5; i++) {
    A[i] = 2.0;
    t = 10 % (i - 3);
  }
}
)"},
    {"iteration_budget", R"(
double A[64];
int main() {
  int i, k;
  for (k = 0; k < 1000; k++)
    for (i = 0; i < 64; i++)
      A[i] = A[i] + 1.0;
}
)"},
    {"zero_step_loop", R"(
double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i += 0)
    A[i] = A[i] + 1.0;
}
)"},
    {"float_to_int_scalar", R"(
int t;
double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[i] = 3.0;
  t = A[1] * 2.0;
}
)"},
    {"float_to_int_array", R"(
int B[4];
double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    B[i] = A[i];
}
)"},
    {"oob_in_parallel_loop", R"(
double A[16][8];
int main() {
  int i, j;
#pragma omp parallel for
  for (i = 0; i < 16; i++)
    for (j = 0; j < 9; j++)
      A[i][j] = 1.0;
}
)"},
    {"unknown_call", R"(
double A[4];
int main() {
  int i;
  for (i = 0; i < 4; i++)
    A[i] = sqrt(A[i]);
}
)"},
    {"unknown_call_statement", R"(
double A[4];
int main() {
  kernel_body(A);
}
)"},
    {"array_without_subscripts", R"(
double A[4];
double s;
int main() {
  s = A + 1.0;
}
)"},
    {"subscript_arity", R"(
double A[4][4];
double s;
int main() {
  s = A[1];
}
)"},
    {"float_subscript", R"(
double A[4];
double s;
int main() {
  s = A[s];
}
)"},
    {"float_modulo", R"(
double s;
int main() {
  s = s % 2.0;
}
)"},
    {"float_loop_bound", R"(
double A[4];
double s;
int main() {
  int i;
  for (i = 0; i < s; i++)
    A[i] = 1.0;
}
)"},
    {"double_loop_var", R"(
double A[4];
double d;
int main() {
  for (d = 0; d < 4; d++)
    A[0] = 1.0;
}
)"},
    {"not_on_float", R"(
double s;
int t;
int main() {
  t = !s;
}
)"},
};

/// OpenMP schedule-model programs: balanced, triangular (imbalanced),
/// racy, nested and reduction-shaped loops under each schedule clause.
std::string ompSource(const std::string &Pragma, const std::string &Shape) {
  std::ostringstream O;
  O << "double A[48][24];\ndouble B[48][24];\ndouble s[4];\nint main() {\n"
       "  int i, j;\n";
  O << "#pragma " << Pragma << "\n";
  if (Shape == "balanced")
    O << "  for (i = 0; i < 48; i++)\n    for (j = 0; j < 24; j++)\n"
         "      A[i][j] = B[i][j] * 2.0 + A[i][j];\n";
  else if (Shape == "triangular")
    O << "  for (i = 0; i < 24; i++)\n    for (j = 0; j <= i; j++)\n"
         "      A[i][j] = A[i][j] + B[j][i] * B[i][j];\n";
  else if (Shape == "racy")
    O << "  for (i = 1; i < 48; i++)\n    for (j = 0; j < 24; j++)\n"
         "      A[i][j] = A[i - 1][j] + 1.0;\n";
  else if (Shape == "nested")
    O << "  for (i = 0; i < 48; i++) {\n#pragma " << Pragma
      << "\n    for (j = 0; j < 24; j++)\n"
         "      A[i][j] = B[i][j] + 1.0;\n  }\n";
  else // reduction into one cell
    O << "  for (i = 0; i < 48; i++)\n    s[0] = s[0] + B[i][0];\n";
  O << "}\n";
  return O.str();
}

/// SIMD-model programs: unit and non-unit stride, proven independent (with
/// negations, charged before their operand loads), unanalyzable (indirect)
/// and proven-dependent innermost loops.
std::string vectorSource(const std::string &Pragma, const std::string &Shape) {
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

Corpus buildCorpus() {
  Corpus C;
  const std::vector<std::string> All = {"tiny", "xeon", "xeon8", "odd"};

  // PolyBench at N=16, with and without cost accounting.
  eval::EvalOptions NoCost;
  NoCost.CountCost = false;
  for (const std::string &K : workloads::polybenchKernels()) {
    C.addSource("polybench." + K, workloads::polybenchSource(K, 16), All);
    C.addSource("polybench." + K + ".nocost",
                workloads::polybenchSource(K, 16), {"xeon"}, NoCost);
  }
  C.addSource("syrk24", workloads::polybenchSource("syrk", 24), All);
  C.addSource("dgemm16", workloads::dgemmSource(16, 16, 16), All);
  C.addSource("dgemm12x20x8", workloads::dgemmSource(12, 20, 8), All);
  C.addSource("dgemm16.nocost", workloads::dgemmSource(16, 16, 16), {"tiny"},
              NoCost);
  using workloads::StencilKind;
  for (StencilKind K :
       {StencilKind::Jacobi1D, StencilKind::Jacobi2D, StencilKind::Heat1D,
        StencilKind::Heat2D, StencilKind::Seidel1D, StencilKind::Seidel2D})
    C.addSource(std::string("stencil.") + workloads::stencilName(K),
                workloads::stencilSource(K, 3, 12), All);

  // Kripke: the hand-optimized kernels (OpenMP on the outer loop) and the
  // Fig. 11 layout variants of Scattering and LTimes.
  workloads::KripkeConfig KC;
  KC.NumZones = 16;
  KC.NumGroups = 4;
  KC.NumMoments = 3;
  InitFn KInit = [KC](eval::ProgramEvaluator &E) {
    workloads::initKripkeArrays(E, KC);
  };
  eval::EvalOptions Trust;
  Trust.TrustParallel = true;
  for (const std::string &Kernel : workloads::kripkeKernels())
    for (const std::string Layout : {"DGZ", "ZGD"}) {
      auto P = parse(workloads::kripkeHandOptimizedSource(KC, Kernel, Layout));
      std::string Name = "kripke." + Kernel + "." + Layout;
      C.add(Name, P, All, eval::EvalOptions(), KInit);
      C.add(Name + ".trust", P, {"xeon"}, Trust, KInit);
    }
  for (const std::string Kernel : {"Scattering", "LTimes"})
    C.addVariants("kripke.fig11." + Kernel,
                  workloads::kripkeKernelSource(KC, Kernel),
                  workloads::kripkeLocusFig11(Kernel), 6, 11,
                  {"tiny", "xeon", "odd"},
                  workloads::kripkeSnippets(KC, Kernel), KInit);

  // Materialized search variants.
  C.addVariants("fig7", workloads::dgemmSource(16, 16, 16),
                workloads::dgemmLocusFig7(16), 16, 7, All);
  C.addVariants("fig5", workloads::dgemmSource(12, 12, 12),
                workloads::dgemmLocusFig5(), 6, 5, {"tiny", "xeon", "odd"});
  C.addVariants("fig9.jacobi2d",
                workloads::stencilSource(StencilKind::Jacobi2D, 4, 16),
                workloads::stencilLocusFig9(0, 2), 4, 9,
                {"tiny", "xeon", "odd"});
  C.addVariants("fig9.heat1d",
                workloads::stencilSource(StencilKind::Heat1D, 6, 32),
                workloads::stencilLocusFig9(0, 2), 4, 9,
                {"tiny", "xeon", "odd"});

  // The Table I nests, and Fig. 13 variants of a few of them.
  std::vector<workloads::CorpusEntry> Nests = workloads::loopCorpus(0.05, 13);
  for (const workloads::CorpusEntry &E : Nests)
    C.addSource("tableI." + E.Name, E.Source, {"tiny", "xeon", "odd"});
  for (size_t I = 0; I < Nests.size(); I += 9)
    C.addVariants("fig13." + Nests[I].Name, Nests[I].Source,
                  workloads::fig13GenericProgram(), 3, 13, {"xeon"});

  // Hand-written semantics, failure, OpenMP and SIMD programs.
  C.addSource("semantics", SemanticsSrc, All);
  C.addSource("semantics.nocost", SemanticsSrc, {"xeon"}, NoCost);
  C.addSource("reduction", StrengthReductionSrc, All);
  C.addSource("reduction.nocost", StrengthReductionSrc, {"xeon"}, NoCost);
  eval::EvalOptions Budget;
  Budget.MaxIterations = 1000;
  for (const NamedSource &F : FailureSources) {
    C.addSource(std::string("fail.") + F.Name, F.Src, {"tiny", "xeon"},
                Budget);
    C.addSource(std::string("fail.") + F.Name + ".nocost", F.Src, {"xeon"},
                [] {
                  eval::EvalOptions O;
                  O.CountCost = false;
                  O.MaxIterations = 1000;
                  return O;
                }());
  }
  const std::pair<const char *, const char *> Schedules[] = {
      {"default", ""},
      {"static", " schedule(static)"},
      {"static5", " schedule(static, 5)"},
      {"dynamic", " schedule(dynamic)"},
      {"dynamic3", " schedule(dynamic, 3)"}};
  for (const auto &[Label, Clause] : Schedules)
    for (const std::string Shape :
         {"balanced", "triangular", "racy", "nested", "reduction"}) {
      std::string Name = "omp." + Shape + "." + Label;
      auto P =
          parse(ompSource(std::string("omp parallel for") + Clause, Shape));
      C.add(Name, P, All);
      C.add(Name + ".trust", P, All, Trust);
      C.add(Name + ".nocost", P, {"xeon"}, NoCost);
    }
  for (const std::string Pragma : {"", "ivdep", "vector always"})
    for (const std::string Shape :
         {"unit", "strided", "negated", "indirect", "carried"}) {
      std::string Name = "simd." + Shape + "." +
                         (Pragma.empty() ? std::string("none") : Pragma);
      for (char &Ch : Name)
        if (Ch == ' ')
          Ch = '_';
      C.addSource(Name, vectorSource(Pragma, Shape), All);
    }
  return C;
}

std::string goldenPath() { return LOCUS_TEST_DATA_DIR "/eval_golden.txt"; }

/// Case name -> described RunResult, from the golden file.
std::map<std::string, std::string> loadGolden() {
  std::map<std::string, std::string> Golden;
  std::ifstream In(goldenPath());
  EXPECT_TRUE(In.good()) << goldenPath();
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Tab = Line.find('\t');
    EXPECT_NE(Tab, std::string::npos) << Line;
    if (Tab != std::string::npos)
      Golden[Line.substr(0, Tab)] = Line.substr(Tab + 1);
  }
  return Golden;
}

TEST(EvaluatorParity, MatchesGoldenRunResults) {
  Corpus C = buildCorpus();
  ASSERT_GT(C.Cases.size(), 500u);
  if (const char *Out = std::getenv("LOCUS_WRITE_GOLDEN")) {
    std::ofstream F(Out);
    F << "# RunResults of tests/EvalParityTest.cpp's corpus; see the header "
         "of that file.\n";
    for (const Case &K : C.Cases)
      F << K.Name << "\t" << describe(runCase(K)) << "\n";
    ASSERT_TRUE(F.good()) << Out;
    GTEST_SKIP() << "wrote " << C.Cases.size() << " golden results to "
                 << Out;
  }
  std::map<std::string, std::string> Golden = loadGolden();
  EXPECT_EQ(Golden.size(), C.Cases.size());
  int Mismatches = 0;
  for (const Case &K : C.Cases) {
    auto It = Golden.find(K.Name);
    if (It == Golden.end()) {
      ADD_FAILURE() << "no golden result for " << K.Name;
      continue;
    }
    std::string Got = describe(runCase(K));
    if (Got != It->second && ++Mismatches <= 20)
      ADD_FAILURE() << K.Name << "\n  golden: " << It->second
                    << "\n  got:    " << Got;
  }
  EXPECT_EQ(Mismatches, 0);
}

/// Each thread keeps one simulator and rebuilds it only when the machine
/// shape changes. Alternating shapes on one thread, and on four threads at
/// once, must reproduce the golden results, which a fresh simulator per
/// run produced.
TEST(EvaluatorParity, ReusedSimulatorsMatchFreshOnes) {
  std::map<std::string, std::string> Golden = loadGolden();
  Corpus C = buildCorpus();
  std::map<std::string, const Case *> ByName;
  for (const Case &K : C.Cases)
    ByName[K.Name] = &K;
  const std::vector<std::string> Programs = {
      "dgemm16", "polybench.syrk", "stencil.heat-2d", "omp.triangular.dynamic3",
      "kripke.Scattering.DGZ"};
  const std::vector<std::string> Order = {"tiny", "xeon", "tiny", "xeon8"};
  auto runSequence = [&](size_t Rotate) {
    std::vector<std::string> Mismatches;
    for (int Round = 0; Round < 3; ++Round)
      for (size_t I = 0; I < Order.size() * Programs.size(); ++I) {
        size_t At = I + Rotate;
        std::string Name = Programs[At % Programs.size()] + "@" +
                           Order[(At / Programs.size()) % Order.size()];
        auto It = ByName.find(Name);
        if (It == ByName.end()) {
          Mismatches.push_back("no corpus case " + Name);
          continue;
        }
        std::string Got = describe(runCase(*It->second));
        if (Got != Golden[Name])
          Mismatches.push_back(Name + ": " + Got);
      }
    return Mismatches;
  };
  for (const std::string &M : runSequence(0))
    ADD_FAILURE() << "one thread: " << M;
  std::vector<std::vector<std::string>> PerThread(4);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < PerThread.size(); ++T)
    Threads.emplace_back(
        [&, T] { PerThread[T] = runSequence(T * Programs.size() + T); });
  for (std::thread &T : Threads)
    T.join();
  for (size_t T = 0; T < PerThread.size(); ++T)
    for (const std::string &M : PerThread[T])
      ADD_FAILURE() << "thread " << T << ": " << M;
}

/// Range analysis and the interpreter agree: a program whose subscripts
/// checkBounds proves in bounds never traps out of bounds at run time.
TEST(EvaluatorParity, RangeProvenNestsNeverTrap) {
  std::vector<std::string> Sources;
  for (uint64_t Seed : {3, 13, 29})
    for (const workloads::CorpusEntry &E : workloads::loopCorpus(0.05, Seed))
      Sources.push_back(E.Source);
  for (const std::string &K : workloads::polybenchKernels())
    Sources.push_back(workloads::polybenchSource(K, 12));
  int Proven = 0;
  for (const std::string &Src : Sources) {
    auto P = parse(Src);
    ASSERT_TRUE(P);
    if (!analysis::checkBounds(*P).clean())
      continue;
    ++Proven;
    for (bool Cost : {false, true}) {
      eval::EvalOptions Opts;
      Opts.CountCost = Cost;
      Opts.Machine = machine::MachineConfig::tiny();
      eval::RunResult R = eval::evaluateProgram(*P, Opts);
      EXPECT_EQ(R.Error.find("out of bounds"), std::string::npos)
          << R.Error << "\n" << Src;
    }
  }
  EXPECT_GT(Proven, static_cast<int>(Sources.size()) / 2);
}

} // namespace
} // namespace locus
