//===- discovery_bench.cpp - Region-discovery perf snapshot ------------------===//
//
// Times the pragma-free region-discovery pipeline over the unannotated
// PolyBench-style kernels and then tunes the hottest discovered region of
// one kernel end-to-end (discover -> annotate -> generic Fig. 13 program ->
// bandit search).
//
// The table shows, per kernel: nests scanned, verdict counts, the top
// candidate's hotness, and the discovery wall time; then the search's point
// count, assessments, baseline/best cycles and wall time.
//
// Knobs: LOCUS_BENCH_SIZE   (problem size N, default 40),
//        LOCUS_BENCH_BUDGET (search assessments, default 24).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/analysis/RegionDiscovery.h"
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
  int Scanned = 0;
  int Selected = 0, Demoted = 0, Rejected = 0;
  double TopHotness = 0;
  double DiscoverMs = 0;
};

struct SearchRow {
  std::string Kernel, Region, Searcher;
  unsigned long long Points = 0;
  int Assessed = 0;
  double BaselineCycles = 0, BestCycles = 0, Speedup = 0;
  double SearchMs = 0;
};

int countVerdict(const analysis::DiscoveryReport &R,
                 analysis::CandidateVerdict V) {
  int N = 0;
  for (const analysis::NestCandidate &C : R.Candidates)
    N += C.Verdict == V ? 1 : 0;
  return N;
}

void runDiscoveryBench() {
  int N = bench::envInt("LOCUS_BENCH_SIZE", 40);
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 24);

  banner("Region discovery: PolyBench scan + one discovered-region search");
  std::printf("problem size %d, search budget %d\n\n", N, Budget);

  std::printf("%-8s %8s %9s %8s %9s %12s %12s\n", "kernel", "scanned",
              "selected", "demoted", "rejected", "top hotness", "discover ms");
  for (const std::string &Name : workloads::polybenchKernels()) {
    auto P = bench::mustParse(workloads::polybenchSource(Name, N));
    auto Start = std::chrono::steady_clock::now();
    analysis::DiscoveryReport R = analysis::discoverRegions(*P);
    KernelRow Row;
    Row.Name = Name;
    Row.DiscoverMs = msSince(Start);
    Row.Scanned = R.NumScanned;
    Row.Selected = countVerdict(R, analysis::CandidateVerdict::Selected);
    Row.Demoted = countVerdict(R, analysis::CandidateVerdict::Demoted);
    Row.Rejected = countVerdict(R, analysis::CandidateVerdict::Rejected);
    if (!R.Candidates.empty())
      Row.TopHotness = R.Candidates.front().Hotness;
    std::printf("%-8s %8d %9d %8d %9d %12.4g %12.3f\n", Name.c_str(),
                Row.Scanned, Row.Selected, Row.Demoted, Row.Rejected,
                Row.TopHotness, Row.DiscoverMs);
  }

  // Tune the hottest discovered region of syrk (the deepest nest of the
  // set) with the generic Fig. 13 program, as `--discover --tune` would.
  SearchRow S;
  S.Kernel = "syrk";
  S.Searcher = "bandit";
  auto Baseline = bench::mustParse(workloads::polybenchSource(S.Kernel, N));
  analysis::DiscoveryReport R = analysis::discoverRegions(*Baseline);
  auto Annotated = Baseline->clone();
  auto Injected = analysis::annotateRegions(*Annotated, R, /*TopN=*/1);
  if (!Injected.ok()) {
    std::fprintf(stderr, "fatal: annotation failed: %s\n",
                 Injected.message().c_str());
    std::exit(1);
  }
  const analysis::NestCandidate *Top = R.annotatable(1).front();
  S.Region = Top->Name;
  auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram(*Top));
  if (!Prog.ok()) {
    std::fprintf(stderr, "fatal: generic program parse error: %s\n",
                 Prog.message().c_str());
    std::exit(1);
  }

  driver::OrchestratorOptions Opts;
  Opts.MaxEvaluations = Budget;
  Opts.SearcherName = S.Searcher;
  Opts.Seed = 99;
  driver::Orchestrator Orch(**Prog, *Annotated, Opts);
  auto Start = std::chrono::steady_clock::now();
  auto Res = Orch.runSearch();
  S.SearchMs = msSince(Start);
  if (!Res.ok()) {
    std::fprintf(stderr, "fatal: search failed: %s\n", Res.message().c_str());
    std::exit(1);
  }
  S.Points = static_cast<unsigned long long>(Res->Space.fullSize());
  S.Assessed = Res->Search.Evaluations;
  S.BaselineCycles = Res->BaselineCycles;
  S.BestCycles = Res->BestCycles;
  S.Speedup = Res->Speedup;
  std::printf("\nsearch: %s/%s (%s): %llu points, assessed %d, baseline "
              "%.0f -> best %.0f cycles, speedup %.2fx, %.1f ms\n",
              S.Kernel.c_str(), S.Region.c_str(), S.Searcher.c_str(), S.Points,
              S.Assessed, S.BaselineCycles, S.BestCycles, S.Speedup,
              S.SearchMs);
}

/// Microbenchmark: cost of one discovery pass over a PolyBench kernel.
void BM_DiscoverRegions(benchmark::State &State) {
  const std::vector<std::string> &Kernels = workloads::polybenchKernels();
  const std::string &Name = Kernels[static_cast<size_t>(State.range(0)) %
                                    Kernels.size()];
  auto P = bench::mustParse(workloads::polybenchSource(Name, 40));
  for (auto _ : State) {
    analysis::DiscoveryReport R = analysis::discoverRegions(*P);
    benchmark::DoNotOptimize(R.Candidates.size());
  }
  State.SetLabel(Name);
}
BENCHMARK(BM_DiscoverRegions)->Arg(0)->Arg(3)->Arg(4);

} // namespace

int main(int argc, char **argv) {
  runDiscoveryBench();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
