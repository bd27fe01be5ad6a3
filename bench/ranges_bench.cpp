//===- ranges_bench.cpp - Range-analysis perf snapshot -----------------------===//
//
// Times the symbolic range analysis over the kernel corpus (bounds proofs
// per PolyBench kernel) and measures what range-driven pruning buys a
// dependent-range search: the same dgemm tile search run with the legality
// oracle on and off, comparing objective invocations and wall time under an
// identical trajectory.
//
// Knobs: LOCUS_BENCH_SIZE   (problem size N, default 40),
//        LOCUS_BENCH_BUDGET (search assessments, default 48).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/analysis/RangeAnalysis.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

using namespace locus;
using bench::banner;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

struct KernelRow {
  std::string Name;
  int Checked = 0;
  int Proven = 0;
  int Violations = 0;
  int Unproven = 0;
  double CheckMs = 0;
};

struct PruneRow {
  std::string Searcher;
  int Evaluations = 0;
  int PrunedByRange = 0;
  int ObjectiveCallsOn = 0;  ///< evaluations that reached the objective
  int ObjectiveCallsOff = 0;
  double SearchMsOn = 0;
  double SearchMsOff = 0;
};

const char *DependentRangeProgram = R"(
Search {
  buildcmd = "make";
  runcmd = "./matmul";
}

CodeReg matmul {
  tile = poweroftwo(2..32);
  tf = poweroftwo(2..tile);
  RoseLocus.Tiling(loop="0", factor=tile);
}
)";

driver::SearchWorkflowResult runTileSearch(const std::string &Searcher,
                                           bool Prune, int Budget,
                                           double &OutMs) {
  auto LP = lang::parseLocusProgram(DependentRangeProgram);
  auto CP = cir::parseProgram(workloads::dgemmSource(32, 32, 32));
  if (!LP.ok() || !CP.ok()) {
    std::fprintf(stderr, "fatal: bench inputs failed to parse\n");
    std::exit(1);
  }
  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = Budget;
  Opts.Seed = 11;
  Opts.SearcherName = Searcher;
  Opts.StaticPrune = Prune;
  driver::Orchestrator Orch(**LP, **CP, Opts);
  auto Start = std::chrono::steady_clock::now();
  auto R = Orch.runSearch();
  OutMs = msSince(Start);
  if (!R.ok()) {
    std::fprintf(stderr, "fatal: search failed: %s\n", R.message().c_str());
    std::exit(1);
  }
  return std::move(*R);
}

void runRangesBench() {
  int N = bench::envInt("LOCUS_BENCH_SIZE", 40);
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 48);

  banner("Range analysis: corpus bounds proofs + range-driven pruning");
  std::printf("problem size %d, search budget %d\n\n", N, Budget);

  std::printf("%-8s %10s %8s %10s %9s %9s\n", "kernel", "subscripts", "proven",
              "violations", "unproven", "check ms");
  for (const std::string &Name : workloads::polybenchKernels()) {
    auto P = bench::mustParse(workloads::polybenchSource(Name, N));
    auto Start = std::chrono::steady_clock::now();
    analysis::BoundsReport R = analysis::checkBounds(*P);
    KernelRow Row;
    Row.Name = Name;
    Row.CheckMs = msSince(Start);
    Row.Checked = R.SubscriptsChecked;
    Row.Proven = R.Proven;
    Row.Violations = R.violations();
    Row.Unproven = R.unproven();
    std::printf("%-8s %10d %8d %10d %9d %9.3f\n", Name.c_str(), Row.Checked,
                Row.Proven, Row.Violations, Row.Unproven, Row.CheckMs);
  }

  // Range-driven pruning on the dependent-range dgemm tile space: identical
  // trajectory by construction, fewer objective invocations, less time.
  std::printf("\n%-10s %6s %9s %8s %9s %8s %9s\n", "searcher", "evals",
              "by-range", "obj(on)", "obj(off)", "ms(on)", "ms(off)");
  for (const char *Searcher : {"exhaustive", "random", "bandit", "tpe"}) {
    PruneRow Row;
    Row.Searcher = Searcher;
    driver::SearchWorkflowResult On =
        runTileSearch(Searcher, /*Prune=*/true, Budget, Row.SearchMsOn);
    driver::SearchWorkflowResult Off =
        runTileSearch(Searcher, /*Prune=*/false, Budget, Row.SearchMsOff);
    Row.Evaluations = On.Search.Evaluations;
    Row.PrunedByRange = On.Search.PrunedStaticByRange;
    Row.ObjectiveCallsOn = On.Search.Evaluations - On.Search.PrunedStatic;
    Row.ObjectiveCallsOff = Off.Search.Evaluations - Off.Search.PrunedStatic;
    std::printf("%-10s %6d %9d %8d %9d %8.1f %9.1f\n", Searcher,
                Row.Evaluations, Row.PrunedByRange, Row.ObjectiveCallsOn,
                Row.ObjectiveCallsOff, Row.SearchMsOn, Row.SearchMsOff);
  }
}

/// Microbenchmark: cost of one whole-program bounds scan.
void BM_CheckBounds(benchmark::State &State) {
  const std::vector<std::string> &Kernels = workloads::polybenchKernels();
  const std::string &Name = Kernels[static_cast<size_t>(State.range(0)) %
                                    Kernels.size()];
  auto P = bench::mustParse(workloads::polybenchSource(Name, 40));
  for (auto _ : State) {
    analysis::BoundsReport R = analysis::checkBounds(*P);
    benchmark::DoNotOptimize(R.Proven);
  }
  State.SetLabel(Name);
}
BENCHMARK(BM_CheckBounds)->Arg(0)->Arg(6)->Arg(7);

} // namespace

int main(int argc, char **argv) {
  runRangesBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
