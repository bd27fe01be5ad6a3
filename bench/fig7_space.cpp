//===- fig7_space.cpp - The Fig. 7 optimization space --------------------------===//
//
// Verifies the space-size claim of Section V-A: the Fig. 7 program defines
// an optimization space of 34,012,224 variants (as counted by OpenTuner).
// Prints the extracted parameters, the value-parameter product (the paper's
// convention) and the full cross product including the OR-block selector,
// and microbenchmarks space extraction, variant materialization and variant
// simulation — the first runs once per search, the others once per
// assessment.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/driver/Orchestrator.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/search/Search.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

using namespace locus;

namespace {

void runFig7Space() {
  bench::banner("Figure 7: optimization-space size (Section V-A)");
  auto Prog = lang::parseLocusProgram(workloads::dgemmLocusFig7(512));
  auto Baseline = bench::mustParse(workloads::dgemmSource(64, 64, 64));
  if (!Prog.ok())
    std::exit(1);

  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**Prog, Registry);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = Baseline.get();
  lang::ExecOutcome O = Interp.extractSpace(*Baseline, Space, TCtx);
  if (!O.Ok) {
    std::fprintf(stderr, "extraction failed: %s\n", O.Error.c_str());
    std::exit(1);
  }

  std::printf("%s\n", Space.describe().c_str());
  unsigned long long ValueSize = Space.valueSize();
  std::printf("value-parameter product : %llu\n", ValueSize);
  std::printf("paper reports           : 34012224 -> %s\n",
              ValueSize == 34012224ull ? "MATCH" : "MISMATCH");
  std::printf("full product (with the OR-block selector): %llu\n",
              (unsigned long long)Space.fullSize());

  auto Settings = Interp.searchSettings();
  if (Settings.ok())
    std::printf("\nSearch block: buildcmd=\"%s\" runcmd=\"%s\"\n",
                Settings->getString("buildcmd").c_str(),
                Settings->getString("runcmd").c_str());
}

void BM_ExtractFig7Space(benchmark::State &State) {
  auto Prog = lang::parseLocusProgram(workloads::dgemmLocusFig7(512));
  auto Baseline = bench::mustParse(workloads::dgemmSource(32, 32, 32));
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  for (auto _ : State) {
    lang::LocusInterpreter Interp(**Prog, Registry);
    search::Space Space;
    transform::TransformContext TCtx;
    TCtx.Prog = Baseline.get();
    Interp.extractSpace(*Baseline, Space, TCtx);
    benchmark::DoNotOptimize(Space.Params.size());
  }
}
BENCHMARK(BM_ExtractFig7Space);

void BM_MaterializeVariant(benchmark::State &State) {
  auto Prog = lang::parseLocusProgram(workloads::dgemmLocusFig7(512));
  auto Baseline = bench::mustParse(workloads::dgemmSource(32, 32, 32));
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**Prog, Registry);
  search::Space Space;
  {
    transform::TransformContext TCtx;
    TCtx.Prog = Baseline.get();
    Interp.extractSpace(*Baseline, Space, TCtx);
  }
  Rng R(7);
  for (auto _ : State) {
    search::Point P = search::samplePoint(Space, R);
    auto Variant = Baseline->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Variant.get();
    lang::ExecOutcome O = Interp.applyPoint(*Variant, P, TCtx);
    benchmark::DoNotOptimize(O.InvalidPoint);
  }
}
BENCHMARK(BM_MaterializeVariant);

/// Simulates 40 sampled Fig. 7 variants of dgemm 32^3 on the xeon model:
/// the measurement a Fig. 7 search pays per point. Twice-tiled variants
/// enter their innermost loops every few iterations, which untiled dgemm
/// (BM_EvaluateVariant in fig6_dgemm.cpp) never shows. The variants are
/// materialized and prepared before timing; each iteration runs all 40.
void BM_EvaluateFig7Variants(benchmark::State &State) {
  constexpr size_t Count = 40;
  auto Prog = lang::parseLocusProgram(workloads::dgemmLocusFig7(16));
  auto Baseline = bench::mustParse(workloads::dgemmSource(32, 32, 32));
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**Prog, Registry);
  search::Space Space;
  {
    transform::TransformContext TCtx;
    TCtx.Prog = Baseline.get();
    Interp.extractSpace(*Baseline, Space, TCtx);
  }
  eval::EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::xeonE5v3();
  std::vector<std::unique_ptr<cir::Program>> Variants;
  std::vector<std::unique_ptr<eval::ProgramEvaluator>> Evals;
  Rng R(7);
  for (int Tries = 0; Evals.size() < Count && Tries < 1000; ++Tries) {
    search::Point P = search::samplePoint(Space, R);
    auto Variant = Baseline->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Variant.get();
    if (!Interp.applyPoint(*Variant, P, TCtx).Ok)
      continue;
    auto Eval = std::make_unique<eval::ProgramEvaluator>(*Variant, Opts);
    if (!Eval->prepare().ok())
      continue;
    Variants.push_back(std::move(Variant));
    Evals.push_back(std::move(Eval));
  }
  if (Evals.size() < Count) {
    State.SkipWithError("too few Fig. 7 variants apply");
    return;
  }
  for (auto _ : State)
    for (auto &Eval : Evals) {
      eval::RunResult Result = Eval->run();
      benchmark::DoNotOptimize(Result.Cycles);
    }
}
BENCHMARK(BM_EvaluateFig7Variants)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  runFig7Space();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
