//===- service_bench.cpp - Tuning-service throughput snapshot ----------------===//
//
// Measures the tuning service's evaluation throughput against the in-process
// baseline on the Fig. 5 DGEMM search (tiny machine, simulated metric): one
// `--jobs 1` reference run, then coordinator + worker-fleet runs at 1, 2 and
// 4 workers, each verifying the determinism anchor (identical best cycles)
// along the way.
//
// On this workload a simulated evaluation costs ~1 ms, so the numbers mostly
// price the service's *overhead* — queue round-trips, worker spawn and
// supervision. The service pays off when an evaluation costs seconds (native
// compile-and-run); the overhead being bounded and visible here is the point
// of the table.
//
// The binary re-execs itself as the worker fleet (argv: --service-worker
// <queue-dir>), the same pattern locus_cli --serve uses.
//
// Knobs: LOCUS_BENCH_BUDGET (assessments per run, default 24).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/support/Subprocess.h"
#include "src/workloads/Workloads.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

using namespace locus;
using bench::banner;

namespace {

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

std::string selfExe(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : std::string(Argv0);
}

driver::OrchestratorOptions baseOptions(int Budget) {
  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.SearcherName = "de";
  Opts.MaxEvaluations = Budget;
  Opts.Seed = 5;
  return Opts;
}

struct Workload {
  std::unique_ptr<lang::LocusProgram> LP;
  std::unique_ptr<cir::Program> CP;
};

Workload mustLoadDgemm() {
  Workload W;
  auto LP = lang::parseLocusProgram(workloads::dgemmLocusFig5());
  if (!LP.ok()) {
    std::fprintf(stderr, "fatal: locus parse error: %s\n",
                 LP.message().c_str());
    std::exit(1);
  }
  W.LP = std::move(*LP);
  W.CP = bench::mustParse(workloads::dgemmSource(24, 24, 24));
  return W;
}

/// Worker-fleet mode: the coordinator spawned us with
/// `--service-worker <queue-dir>`.
int runWorkerMode(const char *Argv0, const std::string &QueueDir) {
  Workload W = mustLoadDgemm();
  driver::Orchestrator Orch(*W.LP, *W.CP, baseOptions(/*Budget=*/24));
  service::WorkerOptions WOpts;
  WOpts.QueueDir = QueueDir;
  WOpts.WorkerId = "bench-pid" + std::to_string(::getpid());
  auto R = Orch.runWorker(WOpts);
  if (!R.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", R.message().c_str());
    return 1;
  }
  (void)Argv0;
  return 0;
}

struct RunRow {
  int Workers = 0; ///< 0 = the in-process --jobs 1 reference
  double Ms = 0;
  double EvalsPerSec = 0;
  double BestCycles = 0;
  uint64_t WorkerResults = 0;
  uint64_t LocalFallback = 0;
  int Spawned = 0;
  bool MatchesLocal = true;
};

RunRow runOnce(const Workload &W, int Budget, int Workers,
               const std::string &Exe, const std::string &QueueDir) {
  driver::OrchestratorOptions Opts = baseOptions(Budget);
  if (Workers > 0) {
    Opts.Serve.QueueDir = QueueDir;
    Opts.Serve.Workers = Workers;
    Opts.Serve.WorkerArgv = [Exe, QueueDir](int, int) {
      return std::vector<std::string>{Exe, "--service-worker", QueueDir};
    };
  }
  driver::Orchestrator Orch(*W.LP, *W.CP, Opts);
  auto Start = std::chrono::steady_clock::now();
  auto R = Orch.runSearch();
  double Ms = msSince(Start);
  if (!R.ok()) {
    std::fprintf(stderr, "fatal: search failed: %s\n", R.message().c_str());
    std::exit(1);
  }
  RunRow Row;
  Row.Workers = Workers;
  Row.Ms = Ms;
  Row.EvalsPerSec = R->Search.Evaluations / (Ms / 1000.0);
  Row.BestCycles = R->BestCycles;
  Row.WorkerResults = R->Service.WorkerResults;
  Row.LocalFallback = R->Service.LocalFallbackEvals;
  Row.Spawned = R->Service.WorkersSpawned;
  return Row;
}

void runServiceBench(const char *Argv0) {
  int Budget = bench::envInt("LOCUS_BENCH_BUDGET", 24);
  std::string Exe = selfExe(Argv0);

  banner("Tuning service: eval throughput vs the in-process baseline");
  std::printf("budget %d, searcher de, seed 5\n\n", Budget);
  std::printf("%-7s %8s %10s %13s %14s %8s %8s\n", "mode", "workers",
              "wall ms", "evals/sec", "worker results", "spawned", "match");

  Workload W = mustLoadDgemm();
  RunRow Local = runOnce(W, Budget, 0, Exe, "");
  std::printf("%-7s %8d %10.1f %13.1f %14llu %8d %8s\n", "local", 0, Local.Ms,
              Local.EvalsPerSec, 0ull, 0, "-");

  support::TempDir Dir("locus-svc-bench-");
  for (int Workers : {1, 2, 4}) {
    RunRow Row = runOnce(W, Budget, Workers, Exe,
                         Dir.path() + "/q" + std::to_string(Workers));
    Row.MatchesLocal = Row.BestCycles == Local.BestCycles;
    std::printf("%-7s %8d %10.1f %13.1f %14llu %8d %8s\n", "serve", Workers,
                Row.Ms, Row.EvalsPerSec,
                (unsigned long long)Row.WorkerResults, Row.Spawned,
                Row.MatchesLocal ? "yes" : "NO");
    if (!Row.MatchesLocal)
      std::fprintf(stderr,
                   "fatal: serve run (%d workers) diverged from the local "
                   "trajectory: best %.0f != %.0f\n",
                   Workers, Row.BestCycles, Local.BestCycles);
  }
}

/// Microbenchmark: one full queue round-trip (announce -> claim -> result ->
/// fold), the per-evaluation overhead floor the service adds on top of the
/// objective itself.
void BM_QueueRoundTrip(benchmark::State &State) {
  support::TempDir Dir("locus-svc-bench-");
  service::TaskQueueOptions Opts;
  Opts.Dir = Dir.path();
  Opts.Header = {1, 2};
  auto Q = service::TaskQueue::open(Opts);
  if (!Q.ok()) {
    State.SkipWithError(Q.message().c_str());
    return;
  }
  service::QueueState S;
  uint64_t Id = 0;
  for (auto _ : State) {
    ++Id;
    (void)Q->announceTask(Id, "a = i:8\n", 0);
    (void)Q->claim(Id, 0, "bench");
    (void)Q->postResult(Id, 0, "bench", search::EvalOutcome::success(1.0));
    (void)Q->poll(S);
    benchmark::DoNotOptimize(S.AppliedRecords);
  }
}
// Fixed iteration count: poll() re-reads the log from the start, so free
// iteration scaling would turn the benchmark quadratic in its own history.
BENCHMARK(BM_QueueRoundTrip)->Iterations(256);

} // namespace

int main(int argc, char **argv) {
  if (argc >= 3 && std::string(argv[1]) == "--service-worker")
    return runWorkerMode(argv[0], argv[2]);
  runServiceBench(argv[0]);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
