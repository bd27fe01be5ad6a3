//===- ablation_search.cpp - Search-module comparison ablation ----------------===//
//
// The paper notes (Section V) that OpenTuner tended to find the best variant
// faster than HyperOpt thanks to its meta-technique and variant
// deduplication. This ablation compares all built-in search modules on the
// Fig. 7 DGEMM space under increasing assessment budgets: best cycles found
// per (searcher, budget), plus duplicate-proposal counts.
//
// Knobs: LOCUS_BENCH_SIZE (matrix order, default 48).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace locus;

namespace {

void runAblation() {
  int N = bench::envInt("LOCUS_BENCH_SIZE", 48);
  bench::banner("Ablation: search modules on the Fig. 7 DGEMM space");
  std::printf("matrix order %d; entries are best cycles found "
              "(lower is better), then duplicates skipped\n\n",
              N);

  std::string Source = workloads::dgemmSource(N, N, N);
  auto Baseline = bench::mustParse(Source);
  auto Prog = lang::parseLocusProgram(workloads::dgemmLocusFig7(64));
  if (!Prog.ok())
    std::exit(1);

  machine::MachineConfig M = machine::MachineConfig::tiny();
  double Base = bench::mustRun(*Baseline, M).Cycles;
  std::printf("baseline: %.0f cycles\n\n", Base);

  const std::vector<int> Budgets = {8, 16, 32};
  std::printf("%-12s", "searcher");
  for (int B : Budgets)
    std::printf(" %10s@%-3d", "best", B);
  std::printf(" %12s\n", "dups@32");

  for (const char *Name :
       {"random", "hillclimb", "de", "bandit", "tpe"}) {
    std::printf("%-12s", Name);
    int Dups = 0;
    for (int B : Budgets) {
      driver::OrchestratorOptions Opts;
      Opts.SearcherName = Name;
      Opts.MaxEvaluations = B;
      Opts.Seed = 11;
      Opts.Eval.Machine = M;
      driver::Orchestrator Orch(**Prog, *Baseline, Opts);
      auto R = Orch.runSearch();
      if (R.ok()) {
        std::printf(" %14.0f", R->BestCycles);
        Dups = R->Search.DuplicateHits;
      } else {
        std::printf(" %14s", "err");
      }
    }
    std::printf(" %12d\n", Dups);
  }
  std::printf("\nExpected shape: bandit (the OpenTuner stand-in) converges at "
              "least as fast as tpe (HyperOpt) and random, echoing the "
              "paper's observation.\n");
}

void BM_BanditStep(benchmark::State &State) {
  // Pure search-machinery throughput on a synthetic objective.
  search::Space S;
  for (int I = 0; I < 6; ++I) {
    search::ParamDef P;
    P.Id = "p" + std::to_string(I);
    P.Label = P.Id;
    P.Kind = search::ParamKind::Pow2;
    P.Min = 2;
    P.Max = 512;
    S.Params.push_back(P);
  }
  for (auto _ : State) {
    search::LambdaObjective Obj([](const search::Point &P) {
      double Sum = 0;
      for (const auto &[Id, V] : P.Values)
        Sum += static_cast<double>(std::get<int64_t>(V));
      return search::EvalOutcome::success(Sum);
    });
    search::SearchOptions Opts;
    Opts.MaxEvaluations = 50;
    auto R = search::makeBanditSearcher()->search(S, Obj, Opts);
    benchmark::DoNotOptimize(R.BestMetric);
  }
}
BENCHMARK(BM_BanditStep);

} // namespace

int main(int argc, char **argv) {
  runAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
