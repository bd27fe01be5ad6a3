//===- quickstart.cpp - Minimal end-to-end Locus walkthrough -----------------===//
//
// The complete pipeline on the paper's running example (Fig. 3 + Fig. 5):
//  1. parse the annotated baseline DGEMM,
//  2. parse a Locus optimization program with OR alternatives and pow2 tile
//     search variables,
//  3. extract the optimization space,
//  4. let a search module find the best variant on the simulated machine,
//  5. print the winning transformed code and the pinned point (the reusable
//     "direct program" recipe).
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/workloads/Workloads.h"

#include <cstdio>

using namespace locus;

int main() {
  // 1. The baseline version (Fig. 3), annotated with "#pragma @Locus".
  std::string CSource = workloads::dgemmSource(64, 64, 64);
  auto Baseline = cir::parseProgram(CSource);
  if (!Baseline.ok()) {
    std::fprintf(stderr, "baseline parse error: %s\n",
                 Baseline.message().c_str());
    return 1;
  }

  // 2. The optimization program (Fig. 5).
  std::string LocusSource = workloads::dgemmLocusFig5();
  std::printf("=== Locus optimization program ===\n%s\n", LocusSource.c_str());
  auto Prog = lang::parseLocusProgram(LocusSource);
  if (!Prog.ok()) {
    std::fprintf(stderr, "locus parse error: %s\n", Prog.message().c_str());
    return 1;
  }

  // 3-4. Search workflow on the simulated 10-core Xeon.
  driver::OrchestratorOptions Opts;
  Opts.SearcherName = "bandit"; // the OpenTuner-style ensemble
  Opts.MaxEvaluations = 40;
  driver::Orchestrator Orch(**Prog, **Baseline, Opts);
  auto Result = Orch.runSearch();
  if (!Result.ok()) {
    std::fprintf(stderr, "search failed: %s\n", Result.message().c_str());
    return 1;
  }

  std::printf("=== Optimization space ===\n%s",
              Result->Space.describe().c_str());
  std::printf("full size: %llu points, value size: %llu\n\n",
              (unsigned long long)Result->Space.fullSize(),
              (unsigned long long)Result->Space.valueSize());

  std::printf("assessed %d variants (%d invalid, %d duplicates skipped)\n",
              Result->Search.Evaluations, Result->Search.InvalidPoints,
              Result->Search.DuplicateHits);
  std::printf("baseline: %.0f cycles, best variant: %.0f cycles "
              "-> speedup %.2fx%s\n\n",
              Result->BaselineCycles, Result->BestCycles, Result->Speedup,
              Result->BaselineChosen ? " (baseline kept: non-prescriptive)"
                                     : "");

  // 5. The winning variant and its pinned recipe.
  if (!Result->BaselineChosen) {
    std::printf("=== Best variant ===\n%s\n",
                cir::printProgram(*Result->BestProgram).c_str());
    std::printf("=== Pinned point (ship with the baseline) ===\n%s\n",
                search::serializePoint(Result->Search.Best).c_str());
  }
  return 0;
}
