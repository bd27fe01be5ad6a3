//===- fig6_stencils.cpp - Figure 6 (left): stencil speedups -----------------===//
//
// Regenerates the left half of Fig. 6: Locus vs Pluto speedup over the
// baseline on the six stencils (Jacobi/Heat/Seidel x 1D/2D). Both apply
// the same Skewing-1 time tiling (Pips.GenericTiling) plus vectorization
// pragmas; Locus empirically searches the skew block size (Fig. 9 program),
// Pluto uses its fixed default — the paper's point is that the search,
// not the transformation set, makes the difference.
//
// Knobs: LOCUS_BENCH_SIZE (2D grid edge, default 128; 1D uses size^2),
//        LOCUS_BENCH_BUDGET (assessments, default 8 = exhaustive pow2 span).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/baseline/Pluto.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace locus;

namespace {

void runFig6Stencils() {
  int N2d = bench::envInt("LOCUS_BENCH_SIZE", 128);
  int N1d = N2d * N2d;
  int T = 16;
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 8);
  // The paper's 2000^2 grids overflow the Xeon's 25 MB L3; the reduced grids
  // here are paired with proportionally scaled caches so time tiling faces
  // the same pressure regime.
  machine::MachineConfig M = machine::MachineConfig::xeonE5v3Scaled(128);
  bench::banner("Figure 6 (left): stencil speedups (Locus vs Pluto)");
  std::printf("2D: %dx%d, 1D: %d elements, %d time steps, caches scaled 1/128 "
              "(paper: 2000x2000 / 1.6M, 1000 steps, full Xeon)\n\n",
              N2d, N2d, N1d, T);

  auto Prog = lang::parseLocusProgram(workloads::stencilLocusFig9(4, 64));
  if (!Prog.ok())
    std::exit(1);

  std::printf("%-12s %14s %14s %14s\n", "stencil", "Locus", "Pluto",
              "best skew");
  double GeoLocus = 0, GeoPluto = 0;
  int Count = 0;
  for (workloads::StencilKind K :
       {workloads::StencilKind::Jacobi1D, workloads::StencilKind::Jacobi2D,
        workloads::StencilKind::Heat1D, workloads::StencilKind::Heat2D,
        workloads::StencilKind::Seidel1D, workloads::StencilKind::Seidel2D}) {
    bool Is1D = K == workloads::StencilKind::Jacobi1D ||
                K == workloads::StencilKind::Heat1D ||
                K == workloads::StencilKind::Seidel1D;
    std::string Source = workloads::stencilSource(K, T, Is1D ? N1d : N2d);
    auto Baseline = bench::mustParse(Source);
    double Base = bench::mustRun(*Baseline, M).Cycles;

    // Locus: exhaustive over the pow2 skew sizes (the Fig. 9 space).
    driver::OrchestratorOptions Opts;
    Opts.SearcherName = "exhaustive";
    Opts.MaxEvaluations = Budget;
    Opts.Eval.Machine = M;
    driver::Orchestrator Orch(**Prog, *Baseline, Opts);
    auto R = Orch.runSearch();
    double LocusCycles = R.ok() ? R->BestCycles : Base;
    long long BestSkew = 0;
    if (R.ok() && !R->BaselineChosen && !R->Search.Best.Values.empty())
      BestSkew = std::get<int64_t>(R->Search.Best.Values.begin()->second);

    // Pluto: fixed heuristic with semantic validation (the modulo time
    // buffers put these outside our affine analyzer, as they do for pet).
    eval::EvalOptions Check;
    Check.CountCost = false;
    eval::RunResult BaseRun = eval::evaluateProgram(*Baseline, Check);
    baseline::PlutoOutcome Pluto = baseline::runPluto(
        *Baseline, "stencil", baseline::PlutoOptions{},
        [&](const cir::Program &Cand) {
          eval::RunResult V = eval::evaluateProgram(Cand, Check);
          return V.Ok && std::abs(V.Checksum - BaseRun.Checksum) <
                             1e-6 * std::max(1.0, std::abs(BaseRun.Checksum));
        });
    double PlutoCycles = bench::mustRun(*Pluto.Program, M).Cycles;

    double SLocus = Base / LocusCycles;
    double SPluto = Base / PlutoCycles;
    GeoLocus += std::log(SLocus);
    GeoPluto += std::log(SPluto);
    ++Count;
    std::printf("%-12s %13.2fx %13.2fx %14lld\n", workloads::stencilName(K),
                SLocus, SPluto, BestSkew);
  }
  std::printf("\ngeomean: Locus %.2fx, Pluto %.2fx (paper: Locus up to ~4x, "
              "always >= Pluto)\n",
              std::exp(GeoLocus / Count), std::exp(GeoPluto / Count));
}

void BM_EvaluateHeat2d(benchmark::State &State) {
  auto P = bench::mustParse(workloads::stencilSource(
      workloads::StencilKind::Heat2D, 8, static_cast<int>(State.range(0))));
  eval::ProgramEvaluator Eval(*P, eval::EvalOptions());
  if (!Eval.prepare().ok())
    State.SkipWithError("prepare failed");
  for (auto _ : State)
    benchmark::DoNotOptimize(Eval.run().Cycles);
}
BENCHMARK(BM_EvaluateHeat2d)->Arg(32)->Arg(64);

} // namespace

int main(int argc, char **argv) {
  runFig6Stencils();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
