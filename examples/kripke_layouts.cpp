//===- kripke_layouts.cpp - Kripke data-layout selection ----------------------===//
//
// Section V-C: a single skeleton per Kripke kernel plus six address-snippet
// files replaces the six hand-optimized source versions. The Fig. 11 Locus
// program picks a layout (the only search variable), splices the matching
// address computation with BuiltIn.Altdesc, interchanges the nest into the
// layout's order, applies LICM + scalar replacement, and parallelizes.
//
// This example runs the Scattering kernel under all six layouts and compares
// each Locus-generated variant against the corresponding hand-optimized
// source version.
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <cstdio>

using namespace locus;

int main() {
  workloads::KripkeConfig C;
  const std::string Kernel = "Scattering";

  std::string Skeleton = workloads::kripkeKernelSource(C, Kernel);
  std::string LocusText = workloads::kripkeLocusFig11(Kernel);
  std::printf("=== Locus program (Fig. 11) ===\n%s\n", LocusText.c_str());

  auto Baseline = cir::parseProgram(Skeleton);
  auto Prog = lang::parseLocusProgram(LocusText);
  if (!Baseline.ok() || !Prog.ok()) {
    std::fprintf(stderr, "parse error\n");
    return 1;
  }

  driver::OrchestratorOptions Opts;
  Opts.Snippets = workloads::kripkeSnippets(C, Kernel);
  Opts.InitHook = [&](eval::ProgramEvaluator &E) {
    workloads::initKripkeArrays(E, C);
  };
  Opts.SearcherName = "exhaustive";
  Opts.MaxEvaluations = 6;
  driver::Orchestrator Orch(**Prog, **Baseline, Opts);

  auto R = Orch.runSearch();
  if (!R.ok()) {
    std::fprintf(stderr, "search failed: %s\n", R.message().c_str());
    return 1;
  }

  std::printf("%-8s %16s %16s\n", "layout", "locus (cycles)", "hand (cycles)");
  const auto &Layouts = workloads::kripkeLayouts();
  double BestCycles = 0, WorstCycles = 0;
  for (size_t I = 0; I < Layouts.size(); ++I) {
    search::Point P;
    P.set(R->Space.Params[0].Id, static_cast<int64_t>(I));
    auto Variant = Orch.runPoint(P);
    if (!Variant.ok()) {
      std::printf("%-8s failed: %s\n", Layouts[I].c_str(),
                  Variant.message().c_str());
      continue;
    }
    // The hand-optimized source version for the same layout.
    auto Hand = cir::parseProgram(
        workloads::kripkeHandOptimizedSource(C, Kernel, Layouts[I]));
    double HandCycles = 0;
    if (Hand.ok()) {
      eval::ProgramEvaluator HandEval(**Hand, eval::EvalOptions());
      if (HandEval.prepare().ok()) {
        workloads::initKripkeArrays(HandEval, C);
        eval::RunResult HandRun = HandEval.run();
        if (HandRun.Ok)
          HandCycles = HandRun.Cycles;
      }
    }
    std::printf("%-8s %16.0f %16.0f\n", Layouts[I].c_str(),
                Variant->Run.Cycles, HandCycles);
    if (BestCycles == 0 || Variant->Run.Cycles < BestCycles)
      BestCycles = Variant->Run.Cycles;
    WorstCycles = std::max(WorstCycles, Variant->Run.Cycles);
  }

  if (BestCycles > 0)
    std::printf("\nbest layout is %.2fx faster than the worst; the search "
                "assessed %d variants to find it\n",
                WorstCycles / BestCycles, R->Search.Evaluations);
  return 0;
}
