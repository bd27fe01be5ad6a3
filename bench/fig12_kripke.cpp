//===- fig12_kripke.cpp - Figure 12: Kripke layouts ----------------------------===//
//
// Regenerates Fig. 12: execution time of the hand-optimized Kripke kernel
// versions vs the Locus-generated ones, for all six data layouts
// (DGZ..ZGD). Locus uses a single skeleton per kernel plus six address
// snippets (BuiltIn.Altdesc) and the Fig. 11 program (interchange to the
// layout's loop order, LICM, scalar replacement, OpenMP). The paper's claim:
// the compact representation reaches performance very close to the six
// hand-optimized versions while keeping one source per kernel.
//
// Knobs: LOCUS_BENCH_SIZE scales the zone count (default 48).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <cmath>

using namespace locus;

namespace {

void runFig12() {
  workloads::KripkeConfig C;
  C.NumZones = bench::envInt("LOCUS_BENCH_SIZE", 48);
  bench::banner("Figure 12: Kripke hand-optimized vs Locus-generated");
  std::printf("moments=%d groups=%d zones=%d directions=%d\n\n", C.NumMoments,
              C.NumGroups, C.NumZones, C.NumDirections);

  const auto &Layouts = workloads::kripkeLayouts();
  double TotalRatio = 0;
  int Measured = 0;

  for (const std::string &Kernel : workloads::kripkeKernels()) {
    auto Baseline = bench::mustParse(workloads::kripkeKernelSource(C, Kernel));
    auto Prog = lang::parseLocusProgram(workloads::kripkeLocusFig11(Kernel));
    if (!Prog.ok()) {
      std::fprintf(stderr, "%s: locus parse error: %s\n", Kernel.c_str(),
                   Prog.message().c_str());
      continue;
    }
    driver::OrchestratorOptions Opts;
    Opts.Snippets = workloads::kripkeSnippets(C, Kernel);
    Opts.InitHook = [&](eval::ProgramEvaluator &E) {
      workloads::initKripkeArrays(E, C);
    };
    driver::Orchestrator Orch(**Prog, *Baseline, Opts);

    // One run per layout (the layout enum is the only search variable;
    // pin it directly, as the paper's Fig. 12 sweeps all six).
    search::Space Space;
    {
      // Extract just to learn the enum parameter id.
      auto Probe = Orch.runSearch();
      if (!Probe.ok()) {
        std::fprintf(stderr, "%s: %s\n", Kernel.c_str(),
                     Probe.message().c_str());
        continue;
      }
      Space = Probe->Space;
    }

    std::printf("%-12s", Kernel.c_str());
    for (size_t I = 0; I < Layouts.size(); ++I)
      std::printf(" %11s", Layouts[I].c_str());
    std::printf("\n");

    std::printf("  %-10s", "locus");
    std::vector<double> LocusCycles(Layouts.size(), 0);
    for (size_t I = 0; I < Layouts.size(); ++I) {
      search::Point P;
      P.set(Space.Params[0].Id, static_cast<int64_t>(I));
      auto R = Orch.runPoint(P);
      LocusCycles[I] = R.ok() ? R->Run.Cycles : 0;
      std::printf(" %11.0f", LocusCycles[I]);
    }
    std::printf("\n  %-10s", "hand");
    for (size_t I = 0; I < Layouts.size(); ++I) {
      auto Hand = bench::mustParse(
          workloads::kripkeHandOptimizedSource(C, Kernel, Layouts[I]));
      eval::ProgramEvaluator Eval(*Hand, eval::EvalOptions());
      double Cycles = 0;
      if (Eval.prepare().ok()) {
        workloads::initKripkeArrays(Eval, C);
        eval::RunResult R = Eval.run();
        if (R.Ok)
          Cycles = R.Cycles;
      }
      std::printf(" %11.0f", Cycles);
      if (Cycles > 0 && LocusCycles[I] > 0) {
        TotalRatio += LocusCycles[I] / Cycles;
        ++Measured;
      }
    }
    std::printf("\n\n");
  }
  if (Measured)
    std::printf("Locus/hand cycle ratio averaged over %d kernel-layout "
                "pairs: %.2f (paper: \"very close\", one source instead of "
                "six per kernel)\n",
                Measured, TotalRatio / Measured);
}

void BM_KripkeScatteringVariant(benchmark::State &State) {
  workloads::KripkeConfig C;
  C.NumZones = 24;
  auto Baseline =
      bench::mustParse(workloads::kripkeKernelSource(C, "Scattering"));
  auto Prog = lang::parseLocusProgram(workloads::kripkeLocusFig11("Scattering"));
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**Prog, Registry);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = Baseline.get();
  TCtx.Snippets = workloads::kripkeSnippets(C, "Scattering");
  Interp.extractSpace(*Baseline, Space, TCtx);
  int64_t Layout = 0;
  for (auto _ : State) {
    search::Point P;
    P.set(Space.Params[0].Id, Layout);
    Layout = (Layout + 1) % 6;
    auto Variant = Baseline->clone();
    transform::TransformContext Ctx;
    Ctx.Prog = Variant.get();
    Ctx.Snippets = TCtx.Snippets;
    lang::ExecOutcome O = Interp.applyPoint(*Variant, P, Ctx);
    benchmark::DoNotOptimize(O.TransformsApplied);
  }
}
BENCHMARK(BM_KripkeScatteringVariant);

} // namespace

int main(int argc, char **argv) {
  runFig12();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
