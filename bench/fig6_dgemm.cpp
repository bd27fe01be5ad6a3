//===- fig6_dgemm.cpp - Figure 6 (right): DGEMM speedups ---------------------===//
//
// Regenerates the right half of Fig. 6: speedup of Locus, Pluto and the
// vendor-library stand-in (MKL) over the single-core baseline DGEMM, for
// 1..10 cores. Locus runs the Fig. 7 program (interchange + two-level
// hierarchical pow2 tiling + OpenMP schedule OR-block) under the bandit
// (OpenTuner-style) search; Pluto applies its fixed heuristic; the tuned
// kernel is a fixed blocked/parallel/vectorized implementation.
//
// The paper's absolute numbers came from a physical Xeon; here the machine
// is the simulated hierarchy, so only the *shape* is expected to hold:
// Locus >= Pluto everywhere (same transformations, searched parameters),
// and Locus competitive with the tuned library as cores scale.
//
// Knobs: LOCUS_BENCH_SIZE (matrix order, default 64),
//        LOCUS_BENCH_BUDGET (assessments per core count, default 60).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/baseline/Pluto.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace locus;
using bench::banner;

namespace {

struct Row {
  int Cores;
  double Locus, Pluto, Mkl;
};

void runFig6Dgemm() {
  int N = bench::envInt("LOCUS_BENCH_SIZE", 64);
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 60);
  banner("Figure 6 (right): DGEMM speedup vs 1-core baseline");
  std::printf("matrix order %d, %d assessments per core count "
              "(paper: 2048, 1000)\n\n",
              N, Budget);

  std::string Source = workloads::dgemmSource(N, N, N);
  auto Baseline = bench::mustParse(Source);
  // The first-level tile range scales with the problem (the paper's 2..512
  // at order 2048 ~ 2..N/4 here).
  auto Prog = lang::parseLocusProgram(
      workloads::dgemmLocusFig7(std::max(8, N / 2)));
  if (!Prog.ok()) {
    std::fprintf(stderr, "locus parse error: %s\n", Prog.message().c_str());
    std::exit(1);
  }

  machine::MachineConfig OneCore = machine::MachineConfig::xeonE5v3();
  OneCore.Cores = 1;
  double BaselineCycles = bench::mustRun(*Baseline, OneCore).Cycles;

  std::vector<Row> Rows;
  std::string BestShape;
  for (int Cores : {1, 2, 4, 6, 8, 10}) {
    machine::MachineConfig M = machine::MachineConfig::xeonE5v3();
    M.Cores = Cores;

    // Locus search.
    driver::OrchestratorOptions Opts;
    Opts.Eval.Machine = M;
    Opts.MaxEvaluations = Budget;
    Opts.SearcherName = "bandit";
    Opts.Seed = 1234 + static_cast<uint64_t>(Cores);
    driver::Orchestrator Orch(**Prog, *Baseline, Opts);
    auto R = Orch.runSearch();
    double LocusCycles =
        R.ok() ? R->BestCycles : std::numeric_limits<double>::infinity();
    if (R.ok() && Cores == 10)
      BestShape = search::serializePoint(R->Search.Best);

    // Pluto heuristic (same machine).
    baseline::PlutoOptions POpts;
    POpts.L2Tile = true;
    baseline::PlutoOutcome Pluto = baseline::runPluto(*Baseline, "matmul", POpts);
    double PlutoCycles = bench::mustRun(*Pluto.Program, M).Cycles;

    // Tuned-library stand-in.
    auto Mkl = bench::mustParse(baseline::tunedDgemmSource(N, N, N, std::max(8, N / 8)));
    double MklCycles = bench::mustRun(*Mkl, M).Cycles;

    Rows.push_back(Row{Cores, BaselineCycles / LocusCycles,
                       BaselineCycles / PlutoCycles,
                       BaselineCycles / MklCycles});
  }

  std::printf("%-6s %12s %12s %12s\n", "cores", "Locus", "Pluto", "MKL-like");
  for (const Row &R : Rows)
    std::printf("%-6d %11.2fx %11.2fx %11.2fx\n", R.Cores, R.Locus, R.Pluto,
                R.Mkl);

  double AvgRatio = 0;
  for (const Row &R : Rows)
    AvgRatio += R.Locus / R.Pluto;
  AvgRatio /= static_cast<double>(Rows.size());
  std::printf("\nLocus best variant vs Pluto, averaged over core counts: "
              "%.2fx (paper: 3.45x at 2048^3 with 1000 assessments)\n",
              AvgRatio);
  if (!BestShape.empty())
    std::printf("\nbest point at 10 cores:\n%s", BestShape.c_str());
}

/// Microbenchmark: cost of evaluating one DGEMM variant on the simulator.
void BM_EvaluateDgemm(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  auto P = bench::mustParse(workloads::dgemmSource(N, N, N));
  eval::EvalOptions Opts;
  eval::ProgramEvaluator Eval(*P, Opts);
  if (!Eval.prepare().ok())
    State.SkipWithError("prepare failed");
  for (auto _ : State) {
    eval::RunResult R = Eval.run();
    benchmark::DoNotOptimize(R.Cycles);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N) * N * N);
}
BENCHMARK(BM_EvaluateDgemm)->Arg(16)->Arg(32)->Arg(48);

/// Microbenchmark: what a search pays per variant on the xeon model, a fresh
/// evaluator with prepare() and one run() (BM_EvaluateDgemm reuses one).
void BM_EvaluateVariant(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  auto P = bench::mustParse(workloads::dgemmSource(N, N, N));
  eval::EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::xeonE5v3();
  for (auto _ : State) {
    eval::ProgramEvaluator Eval(*P, Opts);
    if (!Eval.prepare().ok()) {
      State.SkipWithError("prepare failed");
      break;
    }
    eval::RunResult R = Eval.run();
    benchmark::DoNotOptimize(R.Cycles);
  }
  State.SetItemsProcessed(State.iterations() * static_cast<int64_t>(N) * N * N);
}
BENCHMARK(BM_EvaluateVariant)
    ->Arg(16)
    ->Arg(32)
    ->Arg(96)
    ->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  runFig6Dgemm();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
