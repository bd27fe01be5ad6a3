//===- search_crash_victim.cpp - Real search run for crash torture ------------===//
//
// A minimal orchestrator driver spawned by CrashTortureTest,
// ServiceTortureTest and AnchorsTest: runs the Fig. 5 DGEMM search (or the
// Locus program and MiniC source of --locus and --source) on the tiny
// machine with a journal (and optionally a persistent cache directory or
// the tuning service), printing a machine-parsable summary the parent
// compares across crashed/resumed/uninterrupted runs.
//
//   search_crash_victim [--locus FILE --source FILE [--annotate-hottest]]
//                       --journal FILE [--resume] [--cache-dir DIR]
//                       [--cache-readonly] [--budget N] [--seed N]
//                       [--searcher NAME] [--crash-at SPEC]
//                       [--serve N --queue-dir DIR [--lease-timeout S]
//                        [--poison-deaths K] [--max-respawns N]
//                        [--backoff S] [--worker-crash-at SPEC]
//                        [--die-on-task N] [--worker-die-immediately]
//                        [--poll S]]
//                       [--worker --queue-dir DIR [--worker-id ID]
//                        [--heartbeat S] [--max-heartbeats N] [--poll S]]
//
// --annotate-hottest annotates the hottest nest region discovery finds in
// the source (ranked on the tiny machine), for a source that names no
// region.
//
// --poll S sets the fallback wake period of the coordinator and of every
// worker it spawns (or of this worker); a large value leaves the queue's
// doorbell as the only prompt wake-up.
//
// --crash-at SPEC arms the RecordLog crash injector (the SPEC lands in
// LOCUS_RECORDLOG_CRASH_AT before any log is opened): the Nth append
// SIGKILLs this process mid-write, the closest a test can get to yanking
// the power cord. The parent then re-runs with --resume and expects the
// same BEST/METRIC lines the uninterrupted run prints.
//
// The injector env is *cleared* at startup: a crash-armed coordinator must
// not leak its spec into the workers it spawns (they re-exec this binary
// and inherit the environment). Worker crash specs travel via argv instead:
// --worker-crash-at arms slot 0's first incarnation only.
//
// Output on success (exit 0):
//   BEST <id=value;id=value;...>
//   METRIC <best metric, %.17g>
//   EVALS <fresh> REPLAYED <replayed>
//   CACHE loaded=<n> appended=<n> hits=<n> misses=<n> warnings=<n> degraded=<0|1>
//   SERVICE ... (serve mode only)
//   INTERRUPTED <evals>  (only when stopped by SIGTERM/SIGINT)
// Worker mode prints: WORKER tasks=<n> claims_lost=<n> heartbeats=<n>
// On failure: the orchestrator's error on stderr, exit 1.
//
//===----------------------------------------------------------------------===//

#include "../TestFiles.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/support/Signals.h"
#include "src/workloads/Workloads.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

using namespace locus;

int main(int argc, char **argv) {
  // See header comment: worker processes inherit the coordinator's
  // environment, and a leaked crash spec would SIGKILL every worker at the
  // same append count instead of testing the coordinator's own crash.
  ::unsetenv("LOCUS_RECORDLOG_CRASH_AT");

  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 30;
  Opts.Seed = 5;

  bool Worker = false;
  int ServeWorkers = 0;
  bool Serve = false;
  std::string QueueDir, WorkerId = "worker";
  std::string WorkerCrashAt;
  long DieOnTask = 0;
  bool WorkerDieImmediately = false;
  double Heartbeat = 0.25;
  int MaxHeartbeats = -1;
  std::string Poll;
  std::string LocusSrc = workloads::dgemmLocusFig5();
  std::string CSrc = workloads::dgemmSource(24, 24, 24);
  bool AnnotateHottest = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Arg == "--locus") {
      if (const char *V = Next())
        LocusSrc = test::slurp(V);
    } else if (Arg == "--source") {
      if (const char *V = Next())
        CSrc = test::slurp(V);
    } else if (Arg == "--annotate-hottest") {
      AnnotateHottest = true;
    } else if (Arg == "--journal") {
      if (const char *V = Next())
        Opts.JournalPath = V;
    } else if (Arg == "--resume") {
      Opts.ResumeFromJournal = true;
    } else if (Arg == "--cache-dir") {
      if (const char *V = Next())
        Opts.CacheDir = V;
    } else if (Arg == "--cache-readonly") {
      Opts.CacheReadOnly = true;
    } else if (Arg == "--budget") {
      if (const char *V = Next())
        Opts.MaxEvaluations = std::atoi(V);
    } else if (Arg == "--seed") {
      if (const char *V = Next())
        Opts.Seed = static_cast<uint64_t>(std::strtoull(V, nullptr, 10));
    } else if (Arg == "--searcher") {
      if (const char *V = Next())
        Opts.SearcherName = V;
    } else if (Arg == "--crash-at") {
      // Must be armed before the first RecordLog append in this process.
      if (const char *V = Next())
        ::setenv("LOCUS_RECORDLOG_CRASH_AT", V, 1);
    } else if (Arg == "--serve") {
      Serve = true;
      if (const char *V = Next())
        ServeWorkers = std::atoi(V);
    } else if (Arg == "--worker") {
      Worker = true;
    } else if (Arg == "--queue-dir") {
      if (const char *V = Next())
        QueueDir = V;
    } else if (Arg == "--worker-id") {
      if (const char *V = Next())
        WorkerId = V;
    } else if (Arg == "--lease-timeout") {
      if (const char *V = Next())
        Opts.Serve.LeaseTimeoutSeconds = std::atof(V);
    } else if (Arg == "--poison-deaths") {
      if (const char *V = Next())
        Opts.Serve.PoisonWorkerDeaths = std::atoi(V);
    } else if (Arg == "--max-respawns") {
      if (const char *V = Next())
        Opts.Serve.MaxRespawnsPerSlot = std::atoi(V);
    } else if (Arg == "--backoff") {
      if (const char *V = Next())
        Opts.Serve.RespawnBackoffSeconds = std::atof(V);
    } else if (Arg == "--degrade-grace") {
      if (const char *V = Next())
        Opts.Serve.DegradeGraceSeconds = std::atof(V);
    } else if (Arg == "--worker-crash-at") {
      if (const char *V = Next())
        WorkerCrashAt = V;
    } else if (Arg == "--die-on-task") {
      if (const char *V = Next())
        DieOnTask = std::atol(V);
    } else if (Arg == "--worker-die-immediately") {
      WorkerDieImmediately = true;
    } else if (Arg == "--heartbeat") {
      if (const char *V = Next())
        Heartbeat = std::atof(V);
    } else if (Arg == "--max-heartbeats") {
      if (const char *V = Next())
        MaxHeartbeats = std::atoi(V);
    } else if (Arg == "--poll") {
      if (const char *V = Next())
        Poll = V;
    } else {
      std::fprintf(stderr, "search_crash_victim: unknown option %s\n",
                   Arg.c_str());
      return 2;
    }
  }

  // Under RLIMIT_FSIZE (the disk-full torture) an over-limit write must
  // return EFBIG for RecordLog's partial-write amputation to run, not kill
  // the process with SIGXFSZ.
  std::signal(SIGXFSZ, SIG_IGN);

  // Graceful SIGTERM/SIGINT: raise the cooperative flag, flush, report
  // partial results, exit 0 (the graceful-shutdown torture asserts this).
  support::installShutdownFlag();
  Opts.StopFlag = support::shutdownFlag();

  auto LP = lang::parseLocusProgram(LocusSrc);
  if (!LP.ok()) {
    std::fprintf(stderr, "locus parse failed: %s\n", LP.message().c_str());
    return 1;
  }
  auto CP = cir::parseProgram(CSrc);
  if (!CP.ok()) {
    std::fprintf(stderr, "C parse failed: %s\n", CP.message().c_str());
    return 1;
  }
  if (AnnotateHottest) {
    analysis::DiscoveryOptions DOpts;
    DOpts.Machine = machine::MachineConfig::tiny();
    analysis::DiscoveryReport Report = analysis::discoverRegions(**CP, DOpts);
    if (auto N = analysis::annotateRegions(**CP, Report, 1); !N.ok()) {
      std::fprintf(stderr, "annotation failed: %s\n", N.message().c_str());
      return 1;
    }
  }

  driver::Orchestrator Orch(**LP, **CP, Opts);

  if (Worker) {
    if (WorkerDieImmediately)
      ::raise(SIGKILL);
    service::WorkerOptions WOpts;
    WOpts.QueueDir = QueueDir;
    WOpts.WorkerId = WorkerId;
    WOpts.HeartbeatSeconds = Heartbeat;
    WOpts.MaxHeartbeatsPerTask = MaxHeartbeats;
    if (!Poll.empty())
      WOpts.PollSeconds = std::atof(Poll.c_str());
    WOpts.StopFlag = Opts.StopFlag;
    if (DieOnTask > 0)
      WOpts.OnClaim = [DieOnTask](uint64_t Id) {
        if (Id == static_cast<uint64_t>(DieOnTask))
          ::raise(SIGKILL); // poison task: die holding the lease
      };
    auto WR = Orch.runWorker(WOpts);
    if (!WR.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", WR.message().c_str());
      return 1;
    }
    std::printf("WORKER tasks=%llu claims_lost=%llu heartbeats=%llu\n",
                (unsigned long long)WR->TasksEvaluated,
                (unsigned long long)WR->ClaimsLost,
                (unsigned long long)WR->Heartbeats);
    return 0;
  }

  if (Serve) {
    Opts.Serve.QueueDir = QueueDir;
    Opts.Serve.Workers = ServeWorkers;
    char ExeBuf[4096];
    ssize_t N = ::readlink("/proc/self/exe", ExeBuf, sizeof(ExeBuf) - 1);
    std::string Exe = N > 0 ? std::string(ExeBuf, static_cast<size_t>(N))
                            : std::string(argv[0]);
    std::vector<std::string> Base = {Exe, "--worker", "--queue-dir", QueueDir};
    if (!Opts.CacheDir.empty()) {
      Base.push_back("--cache-dir");
      Base.push_back(Opts.CacheDir);
    }
    if (DieOnTask > 0) {
      Base.push_back("--die-on-task");
      Base.push_back(std::to_string(DieOnTask));
    }
    if (WorkerDieImmediately)
      Base.push_back("--worker-die-immediately");
    if (!Poll.empty()) {
      Opts.Serve.PollSeconds = std::atof(Poll.c_str());
      Base.push_back("--poll");
      Base.push_back(Poll);
    }
    std::string CrashAt = WorkerCrashAt;
    Opts.Serve.WorkerArgv = [Base, CrashAt](int Slot, int Attempt) {
      std::vector<std::string> Argv = Base;
      // A worker crash spec arms only slot 0's first incarnation, so the
      // respawn completes the run instead of crashing forever.
      if (!CrashAt.empty() && Slot == 0 && Attempt == 0) {
        Argv.push_back("--crash-at");
        Argv.push_back(CrashAt);
      }
      return Argv;
    };
    // Recreate the orchestrator: Opts.Serve changed after construction.
    driver::Orchestrator ServeOrch(**LP, **CP, Opts);
    auto R = ServeOrch.runSearch();
    if (!R.ok()) {
      std::fprintf(stderr, "%s\n", R.message().c_str());
      return 1;
    }
    std::string Best = search::serializePoint(R->Search.Best);
    for (char &C : Best)
      if (C == '\n')
        C = ';';
    std::printf("BEST %s\n", Best.c_str());
    std::printf("METRIC %.17g\n", R->Search.BestMetric);
    std::printf("EVALS %d REPLAYED %d\n", R->Search.Evaluations,
                R->Search.ReplayedEvaluations);
    const service::ServiceStats &S = R->Service;
    std::printf("SERVICE submitted=%llu worker=%llu recovered=%llu "
                "local=%llu expiries=%llu stale=%llu deaths=%llu "
                "respawns=%llu quarantined=%llu spawned=%d degraded=%d\n",
                (unsigned long long)S.TasksSubmitted,
                (unsigned long long)S.WorkerResults,
                (unsigned long long)S.RecoveredResults,
                (unsigned long long)S.LocalFallbackEvals,
                (unsigned long long)S.LeaseExpiries,
                (unsigned long long)S.StaleResultsDiscarded,
                (unsigned long long)S.WorkerDeaths,
                (unsigned long long)S.WorkerRespawns,
                (unsigned long long)S.QuarantinedTasks, S.WorkersSpawned,
                S.Degraded ? 1 : 0);
    if (R->Search.Stopped)
      std::printf("INTERRUPTED %d\n", R->Search.Evaluations);
    return 0;
  }

  auto R = Orch.runSearch();
  if (!R.ok()) {
    std::fprintf(stderr, "%s\n", R.message().c_str());
    return 1;
  }

  // One line per fact, stable ordering, full double precision: the parent
  // diffs these strings byte for byte.
  std::string Best = search::serializePoint(R->Search.Best);
  for (char &C : Best)
    if (C == '\n')
      C = ';';
  std::printf("BEST %s\n", Best.c_str());
  std::printf("METRIC %.17g\n", R->Search.BestMetric);
  std::printf("EVALS %d REPLAYED %d\n", R->Search.Evaluations,
              R->Search.ReplayedEvaluations);
  std::printf("CACHE loaded=%llu appended=%llu hits=%llu misses=%llu "
              "warnings=%llu degraded=%d\n",
              (unsigned long long)R->Search.CacheLoadedPersistent,
              (unsigned long long)R->Search.CachePersistedAppends,
              (unsigned long long)R->Search.CacheHits,
              (unsigned long long)R->Search.CacheMisses,
              (unsigned long long)R->Search.CacheWarnings,
              R->Search.CacheDegraded ? 1 : 0);
  if (R->Search.Stopped)
    std::printf("INTERRUPTED %d\n", R->Search.Evaluations);
  return 0;
}
