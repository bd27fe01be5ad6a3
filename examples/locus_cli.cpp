//===- locus_cli.cpp - Command-line driver for the Locus system ---------------===//
//
// The tool a downstream user runs, wrapping the full pipeline:
//
//   locus_cli PROGRAM.locus SOURCE.c [options]     search or direct workflow
//   locus_cli --discover SOURCE.c [options]        pragma-free discovery
//
// plus the tuning service (serve/worker), static analyses (lint,
// race-check, bounds-check) and record-log dumps. The flags, the modes they
// apply to and their help live in one table (src/driver/CliOptions); run
// `locus_cli --help` for the full list.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/analysis/TransformPlan.h"
#include "src/analysis/Verifier.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/driver/CliOptions.h"
#include "src/eval/NativeEvaluator.h"
#include "src/locus/LocusParser.h"
#include "src/locus/LocusPrinter.h"
#include "src/search/PointCodec.h"
#include "src/support/RecordLog.h"
#include "src/support/Signals.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <sys/stat.h>
#include <unistd.h>

using namespace locus;

namespace {

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = static_cast<bool>(In);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << Text;
  return static_cast<bool>(Out);
}

/// One line per record: the decoded journal record, or the queue event
/// (folded into \p State).
Expected<std::string> describeRecord(const std::string &Payload, bool Queue,
                                     service::QueueState &State) {
  using E = Expected<std::string>;
  if (!Queue) {
    auto R = search::SearchJournal::decodeRecord(Payload, search::Space());
    if (!R.ok())
      return E::error(R.message());
    std::string Summary = R->P.key() + " ";
    Summary += R->Valid ? "metric=" + search::formatDouble(R->Metric)
                        : std::string(search::failureKindName(R->Failure));
    if (!R->Detail.empty())
      Summary += ": " + R->Detail;
    return Summary;
  }
  auto R = service::parseQueueRecord(Payload);
  if (!R.ok())
    return E::error(R.message());
  State.apply(*R);
  using K = service::QueueRecord::Kind;
  std::string Summary = service::queueRecordKindName(R->K);
  if (R->K != K::Shutdown)
    Summary += " id=" + std::to_string(R->Id);
  if (R->K == K::Lease || R->K == K::Heartbeat || R->K == K::Expire ||
      R->K == K::Result)
    Summary += " epoch=" + std::to_string(R->Epoch);
  if (!R->Worker.empty())
    Summary += " worker=" + R->Worker;
  if (R->K == K::Result)
    Summary += R->Out.ok() ? " metric=" + search::formatDouble(R->Out.Metric)
                           : " " + std::string(search::failureKindName(
                                       R->Out.Failure));
  return Summary;
}

/// --journal-dump / --queue-dump: human-readable inspection of a CRC-framed
/// RecordLog file — header, per-record byte offset and decoded record, and
/// an explicit note when a torn tail was found. Queue dumps additionally
/// fold the records and print the resulting task state. Exits 1 when the
/// header or any record does not decode.
int dumpRecordLog(std::string Path, bool Queue) {
  struct stat St;
  if (Queue && ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
    Path = service::TaskQueue::queueFilePath(Path);
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok()) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Scan.message().c_str());
    return 1;
  }
  if (Scan->Header.empty() && Scan->Records.empty() && !Scan->TornTail) {
    std::printf("%s: empty or missing record log\n", Path.c_str());
    return 0;
  }
  std::printf("%s: record log, %zu record(s), %llu intact bytes\n",
              Path.c_str(), Scan->Records.size(),
              (unsigned long long)Scan->GoodBytes);

  const char *Tag = Queue ? service::QueueTag : search::JournalTag;
  auto H = search::readRunHeader(Scan->Header, Tag,
                                 Queue ? "queue" : "journal", Path);
  if (!H.ok()) {
    // Records under a foreign header follow another grammar.
    std::fprintf(stderr, "%s\n", H.message().c_str());
    return 1;
  }
  std::printf("header: %s, space fingerprint %016llx, config digest %016llx\n",
              Tag, (unsigned long long)H->SpaceFingerprint,
              (unsigned long long)H->ConfigDigest);

  uint64_t Off = support::RecordLog::headerBlockSize(Scan->Header.size());
  service::QueueState State;
  bool Clean = true;
  for (const std::string &Payload : Scan->Records) {
    auto Summary = describeRecord(Payload, Queue, State);
    if (!Summary.ok()) {
      Clean = false;
      std::fprintf(stderr, "record at byte %llu does not decode: %s\n",
                   (unsigned long long)Off, Summary.message().c_str());
    }
    std::string Line = Summary.ok() ? *Summary : "undecodable";
    std::replace(Line.begin(), Line.end(), '\n', ' ');
    std::printf("  @%-8llu %5zu bytes  %s\n", (unsigned long long)Off,
                Payload.size(), Line.c_str());
    Off += 8 + Payload.size();
  }
  if (Scan->TornTail)
    std::printf("torn tail at offset %llu: %s (recovery truncates to %llu "
                "bytes)\n",
                (unsigned long long)Scan->TornOffset, Scan->Why.c_str(),
                (unsigned long long)Scan->GoodBytes);
  if (Queue) {
    uint64_t Done = 0, Open = 0, Claimed = 0, Quarantined = 0;
    for (const auto &[Id, T] : State.Tasks) {
      if (T.Done)
        ++Done;
      else if (!T.LeaseWorker.empty())
        ++Claimed;
      else
        ++Open;
      if (T.Quarantined)
        ++Quarantined;
    }
    std::printf("state: %zu task(s): %llu done (%llu quarantined), %llu "
                "claimed, %llu open; %llu stale result(s) discarded%s\n",
                State.Tasks.size(), (unsigned long long)Done,
                (unsigned long long)Quarantined, (unsigned long long)Claimed,
                (unsigned long long)Open,
                (unsigned long long)State.StaleResultsDiscarded,
                State.ShutdownSeen ? "; shutdown announced" : "");
  }
  return Clean ? 0 : 1;
}

/// Parallel-safety report (--race-check): for every outer loop of every
/// region — plus any nested loop already carrying an `omp parallel for`
/// pragma — print the verdict for parallelizing it, the data-sharing
/// classification of every referenced variable, and a located witness for
/// every proven race. Advisory: always exits 0.
int runRaceCheck(const cir::Program &Baseline) {
  for (const std::string &Name : Baseline.regionNames()) {
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      std::vector<cir::ConstLoopEntry> Loops = cir::listLoops(*Region);
      std::vector<const cir::ForStmt *> Targets;
      for (const cir::ConstLoopEntry &E : Loops)
        if (E.Outer)
          Targets.push_back(E.Loop);
      for (const cir::ConstLoopEntry &E : Loops)
        if (!E.Outer && analysis::hasOmpParallelFor(*E.Loop))
          Targets.push_back(E.Loop);

      for (const cir::ForStmt *For : Targets) {
        analysis::ParallelSafetyReport Rep =
            analysis::analyzeParallelLoop(*For);
        std::printf("region '%s': loop '%s' (%s)%s: %s\n", Name.c_str(),
                    For->Var.c_str(), For->Loc.str().c_str(),
                    analysis::hasOmpParallelFor(*For) ? " [omp parallel for]"
                                                      : "",
                    Rep.summary().c_str());
        for (const analysis::RaceWitness &W : Rep.Witnesses)
          std::printf("  witness: %s\n", W.render().c_str());
        if (Rep.Verdict == analysis::ParallelVerdict::Safe) {
          std::string Clauses = Rep.clauses();
          if (!Clauses.empty())
            std::printf("  clauses: %s\n", Clauses.c_str());
        }
        for (const analysis::VarInfo &V : Rep.Vars) {
          std::string Class = analysis::varClassName(V.Class);
          if (V.Class == analysis::VarClass::Reduction && V.Reduction)
            Class += std::string("(") + analysis::redOpName(*V.Reduction) + ")";
          std::printf("  %-16s %-17s %s\n",
                      (V.Name + (V.IsArray ? "[]" : "")).c_str(), Class.c_str(),
                      V.Why.c_str());
        }
      }
    }
  }
  return 0;
}

/// --bounds-check: source-only symbolic range analysis over every array
/// subscript. Prints the report (per-finding located witnesses, summary
/// line); exits 0 unless \p Strict, in which case any non-proven subscript
/// exits 1.
int runBoundsCheck(const cir::Program &Baseline, bool Strict) {
  analysis::BoundsReport Report = analysis::checkBounds(Baseline);
  std::printf("%s\n", Report.render().c_str());
  return Strict && !Report.clean() ? 1 : 0;
}

/// Static diagnostics: CIR verifier findings plus dependence-availability
/// warnings for regions the optimization program wants to transform with
/// dependence-based modules, race findings for loops that are (or that
/// the optimization program asks to be) parallelized, and bounds findings
/// for subscripts range analysis cannot prove in bounds. Exits 0 (lint
/// never gates a build) unless \p Strict, in which case any printed
/// finding exits 1.
int runLint(const lang::LocusProgram &Prog, const cir::Program &Baseline,
            bool Strict) {
  support::DiagEngine Diags;
  analysis::verifyProgram(Baseline, Diags);

  // Which regions have dependence information on their outer loop nests?
  std::map<std::string, bool> DepAvailable;
  for (const std::string &Name : Baseline.regionNames()) {
    bool Available = true;
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      for (const cir::ConstLoopEntry &E : cir::listOuterLoops(*Region)) {
        support::Diag Why;
        if (!analysis::DependenceInfo::compute(*E.Loop, &Why)) {
          Available = false;
          if (!Why.Message.empty()) {
            Why.Region = Name;
            Diags.report(Why.Sev, Why.Loc, Why.Region, Why.Message);
          }
        }
      }
    }
    DepAvailable[Name] = Available;
  }

  // Race findings: any loop already carrying `omp parallel for` whose
  // parallel safety the analyzer refutes (or cannot establish) is worth a
  // warning — the search's applyOmpFor gate only sees loops the
  // optimization program parallelizes, not pragmas baked into the source.
  for (const std::string &Name : Baseline.regionNames()) {
    for (const cir::Block *Region : Baseline.findRegions(Name)) {
      for (const cir::ConstLoopEntry &E : cir::listLoops(*Region)) {
        const cir::ForStmt *For = E.Loop;
        if (!analysis::hasOmpParallelFor(*For))
          continue;
        analysis::ParallelSafetyReport Rep =
            analysis::analyzeParallelLoop(*For);
        if (Rep.Verdict == analysis::ParallelVerdict::Racy) {
          std::string Msg = "loop '" + For->Var +
                            "' carries 'omp parallel for' but is racy";
          if (!Rep.Witnesses.empty())
            Msg += ": " + Rep.Witnesses.front().render();
          Diags.warning(For->Loc, Name, Msg);
        } else if (Rep.Verdict == analysis::ParallelVerdict::Unknown) {
          Diags.warning(For->Loc, Name,
                        "loop '" + For->Var +
                            "' carries 'omp parallel for' but its parallel "
                            "safety cannot be established: " +
                            Rep.WhyUnknown);
        }
      }
    }
  }

  // Extract the plan and flag dependence-based transformations aimed at
  // regions without dependence information: at run time those calls will be
  // rejected (RequireDeps) or applied blindly.
  static const std::set<std::string> NeedsDeps = {
      "Tiling", "GenericTiling", "Interchange",
      "UnrollAndJam", "Fusion", "Distribute"};
  std::unique_ptr<cir::Program> Clone = Baseline.clone();
  transform::TransformContext TCtx;
  TCtx.Prog = Clone.get();
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(Prog, Registry);
  search::Space Space;
  analysis::TransformPlan Plan;
  lang::ExecOutcome Exec = Interp.extractSpace(*Clone, Space, TCtx, &Plan);
  if (Exec.Ok) {
    std::set<std::string> Seen;
    for (const analysis::PlanEntry &E : Plan.Entries) {
      if (E.K != analysis::PlanEntry::Kind::ModuleCall ||
          !NeedsDeps.count(E.Member))
        continue;
      auto It = DepAvailable.find(E.Region);
      if (It == DepAvailable.end() || It->second)
        continue;
      std::string Key = E.Module + "." + E.Member + "@" + E.Region;
      if (!Seen.insert(Key).second)
        continue;
      Diags.warning({}, E.Region,
                    E.Module + "." + E.Member + " (optimization program line " +
                        std::to_string(E.Line) +
                        ") transforms a region without dependence "
                        "information; its legality cannot be checked");
    }
  }

  // Discovery findings: loop nests living outside every @Locus region.
  // Rejected candidates surface their located rejection reason; annotatable
  // ones get a coverage hint. Advisory like the rest of lint (exit 0).
  analysis::DiscoveryReport Disc = analysis::discoverRegions(Baseline);
  for (const analysis::NestCandidate &C : Disc.Candidates) {
    if (C.Verdict == analysis::CandidateVerdict::Rejected) {
      support::SrcLoc Loc = C.Why.Loc.valid() ? C.Why.Loc : C.Loc;
      Diags.warning(Loc, "",
                    "discovery: loop nest at " + C.Loc.str() +
                        " is not optimizable: " + C.Why.Message);
    } else {
      Diags.warning(C.Loc, "",
                    "loop nest `for (" + C.LoopVar +
                        ")` is not covered by any @Locus region; discovery "
                        "ranks it as " +
                        C.Name + " (" +
                        analysis::candidateVerdictName(C.Verdict) + ")");
    }
  }

  // Bounds findings: subscripts range analysis cannot prove in bounds.
  // Violations carry a concrete witness; unproven ones say what is missing.
  analysis::BoundsReport Bounds = analysis::checkBounds(Baseline);
  for (const analysis::SubscriptFinding &F : Bounds.Findings)
    Diags.warning(F.Loc, F.Region, F.witness());

  int Printed = 0;
  for (const support::Diag &D : Diags.all())
    if (D.Sev != support::DiagSeverity::Note) {
      std::printf("%s\n", D.render().c_str());
      ++Printed;
    }
  return Strict && Printed > 0 ? 1 : 0;
}

/// --discover [--tune]: scan an unannotated source, print the ranked
/// report, and optionally annotate the top candidates and tune each one
/// under the generated generic program. Report-only mode always exits 0;
/// tune mode exits 1 when any candidate's search fails.
int runDiscover(const cir::Program &Baseline, driver::OrchestratorOptions Opts,
                int TopN, bool Tune) {
  analysis::DiscoveryOptions DOpts;
  DOpts.Machine = Opts.Eval.Machine;
  analysis::DiscoveryReport Report = analysis::discoverRegions(Baseline, DOpts);
  std::printf("%s", Report.render().c_str());
  if (!Tune)
    return 0;

  std::unique_ptr<cir::Program> Annotated = Baseline.clone();
  Expected<int> Injected = analysis::annotateRegions(*Annotated, Report, TopN);
  if (!Injected.ok()) {
    std::fprintf(stderr, "annotation failed: %s\n", Injected.message().c_str());
    return 1;
  }
  std::printf("annotated %d region(s)\n", *Injected);

  const std::string JournalBase = Opts.JournalPath;
  int Failures = 0;
  for (const analysis::NestCandidate *C : Report.annotatable(TopN)) {
    auto Prog = lang::parseLocusProgram(analysis::genericLocusProgram(*C));
    if (!Prog.ok()) {
      std::fprintf(stderr, "candidate %s: bad generic program: %s\n",
                   C->Name.c_str(), Prog.message().c_str());
      ++Failures;
      continue;
    }
    // One journal per candidate: each search has its own space fingerprint.
    if (!JournalBase.empty())
      Opts.JournalPath = JournalBase + "." + C->Name;
    driver::Orchestrator Orch(**Prog, *Annotated, Opts);
    auto R = Orch.runSearch();
    if (!R.ok()) {
      std::fprintf(stderr, "candidate %s: search failed: %s\n", C->Name.c_str(),
                   R.message().c_str());
      ++Failures;
      continue;
    }
    std::printf("candidate %s (%s, depth %d): %llu points, assessed %d "
                "(%llu projection hits), baseline %.0f -> best %.0f cycles, "
                "speedup %.2fx%s\n",
                C->Name.c_str(), C->Loc.str().c_str(), C->Depth,
                (unsigned long long)R->Space.fullSize(), R->Search.Evaluations,
                (unsigned long long)R->Search.ProjectionHits,
                R->BaselineCycles, R->BestCycles, R->Speedup,
                R->BaselineChosen ? " (baseline kept)" : "");
  }
  return Failures ? 1 : 0;
}

/// Shared set-up of every tuning run (search, serve, worker, discover
/// --tune).
void setupTuning(driver::OrchestratorOptions &Opts) {
  // Degrade gracefully on compiler-less hosts: native measurement is an
  // upgrade, not a requirement, so fall back to the simulator with a clear
  // diagnostic instead of failing the whole run.
  if (Opts.NativeMetric &&
      !eval::nativeCompilerAvailable(Opts.Native.Compiler)) {
    std::fprintf(stderr,
                 "warning: --native-metric: compiler '%s' is not available; "
                 "falling back to the simulator metric\n",
                 Opts.Native.Compiler.c_str());
    Opts.NativeMetric = false;
  }
  // Graceful SIGTERM/SIGINT: the flag is checked between evaluations, the
  // journal's last record is already synced, and partial results are
  // reported with a clean exit code.
  support::installShutdownFlag();
  Opts.StopFlag = support::shutdownFlag();
}

/// The coordinator's argv for its workers: this binary, re-executed in
/// worker mode with the flags that shape the objective.
std::vector<std::string> selfWorkerArgv(const driver::CliOptions &Cli,
                                        const char *Argv0) {
  char ExeBuf[4096];
  ssize_t N = ::readlink("/proc/self/exe", ExeBuf, sizeof(ExeBuf) - 1);
  std::string Exe = N > 0 ? std::string(ExeBuf, static_cast<size_t>(N))
                          : std::string(Argv0);
  return driver::workerArgv(Cli, Exe);
}

int runWorker(driver::Orchestrator &Orch, const driver::CliOptions &Cli) {
  service::WorkerOptions WOpts;
  WOpts.QueueDir = Cli.Opts.Serve.QueueDir;
  WOpts.WorkerId = Cli.WorkerId.empty() ? "pid" + std::to_string(::getpid())
                                        : Cli.WorkerId;
  WOpts.StopFlag = Cli.Opts.StopFlag;
  auto WR = Orch.runWorker(WOpts);
  if (!WR.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", WR.message().c_str());
    return 1;
  }
  std::printf("worker %s: %llu task(s) evaluated, %llu claim(s) lost, "
              "%llu heartbeat(s)\n",
              WOpts.WorkerId.c_str(), (unsigned long long)WR->TasksEvaluated,
              (unsigned long long)WR->ClaimsLost,
              (unsigned long long)WR->Heartbeats);
  return 0;
}

/// Applies a serialized point. The interpreter refuses a point that leaves
/// a search construct unpinned with a located error, so no space has to be
/// extracted to validate it against.
Expected<driver::DirectResult> runPointFile(driver::Orchestrator &Orch,
                                            const std::string &Path) {
  bool Ok = false;
  std::string Text = readFile(Path, Ok);
  if (!Ok)
    return Expected<driver::DirectResult>::error("cannot read " + Path);
  auto P = search::deserializePoint(Text, search::Space{});
  if (!P.ok())
    return Expected<driver::DirectResult>::error(P.message());
  return Orch.runPoint(*P);
}

void printSearchSummary(const driver::SearchWorkflowResult &R,
                        const driver::OrchestratorOptions &Opts) {
  const search::SearchResult &S = R.Search;
  std::printf("space: %llu points (%zu parameters)\n",
              (unsigned long long)R.Space.fullSize(), R.Space.Params.size());
  std::printf("%s", R.Space.describe().c_str());
  std::printf("assessed %d variants (%d invalid, %d duplicates",
              S.Evaluations, S.InvalidPoints, S.DuplicateHits);
  if (S.ProjectionHits > 0)
    std::printf(", %llu projection hits",
                (unsigned long long)S.ProjectionHits);
  if (S.ReplayedEvaluations > 0)
    std::printf(", %d replayed from journal", S.ReplayedEvaluations);
  if (S.PrunedStatic > 0) {
    std::printf(", %d pruned statically", S.PrunedStatic);
    if (S.PrunedStaticByRange > 0)
      std::printf(" (%d by range)", S.PrunedStaticByRange);
  }
  std::printf(")\n");
  for (int K = 1; K < search::NumFailureKinds; ++K)
    if (int N = S.FailureCounts[static_cast<size_t>(K)])
      std::printf("  %-17s %d\n",
                  search::failureKindName(static_cast<search::FailureKind>(K)),
                  N);
  if (S.PoolJobs > 1)
    std::printf("pool: %d workers, %d batches (widest %d), %d of %d "
                "assessments dispatched in parallel\n",
                S.PoolJobs, S.Batches, S.MaxBatch, S.PooledEvaluations,
                S.ObjectiveCalls);
  if (S.CacheHits || S.CacheMisses)
    std::printf("eval cache: %llu hits / %llu misses, %llu cross-point "
                "dedup saves\n",
                (unsigned long long)S.CacheHits,
                (unsigned long long)S.CacheMisses,
                (unsigned long long)S.CacheDedupSaves);
  if (!Opts.CacheDir.empty()) {
    std::printf("persistent cache: %llu loaded, %llu appended",
                (unsigned long long)S.CacheLoadedPersistent,
                (unsigned long long)S.CachePersistedAppends);
    if (S.CacheWarnings)
      std::printf(", %llu warnings", (unsigned long long)S.CacheWarnings);
    if (S.CacheDegraded)
      std::printf(" (degraded to in-memory)");
    std::printf("\n");
  }
  if (R.Served) {
    const service::ServiceStats &SS = R.Service;
    std::printf("service: %llu task(s) (%llu from workers, %llu recovered, "
                "%llu local), %d worker(s) spawned (%llu death(s), %llu "
                "respawn(s)), %llu lease expiries, %llu stale result(s) "
                "discarded, %llu quarantined%s\n",
                (unsigned long long)SS.TasksSubmitted,
                (unsigned long long)SS.WorkerResults,
                (unsigned long long)SS.RecoveredResults,
                (unsigned long long)SS.LocalFallbackEvals, SS.WorkersSpawned,
                (unsigned long long)SS.WorkerDeaths,
                (unsigned long long)SS.WorkerRespawns,
                (unsigned long long)SS.LeaseExpiries,
                (unsigned long long)SS.StaleResultsDiscarded,
                (unsigned long long)SS.QuarantinedTasks,
                SS.Degraded ? " (degraded to in-process)" : "");
  }
  if (S.Stopped)
    std::printf("interrupted: partial results after %d evaluation(s)\n",
                S.Evaluations);
  if (Opts.NativeMetric)
    std::printf("baseline %.6f s -> best %.6f s, speedup %.2fx%s\n",
                R.BaselineCycles, R.BestCycles, R.Speedup,
                R.BaselineChosen ? " (baseline kept)" : "");
  else
    std::printf("baseline %.0f cycles -> best %.0f cycles, speedup %.2fx%s\n",
                R.BaselineCycles, R.BestCycles, R.Speedup,
                R.BaselineChosen ? " (baseline kept)" : "");
}

/// Writes the best point and its pinned direct program where asked.
void exportBest(const lang::LocusProgram &Prog, const search::Point &Best,
                const driver::CliOptions &Cli) {
  if (!Cli.ExportPoint.empty() &&
      !writeFile(Cli.ExportPoint, search::serializePoint(Best)))
    std::fprintf(stderr, "cannot write %s\n", Cli.ExportPoint.c_str());
  if (Cli.ExportDirect.empty())
    return;
  auto DirectProg = lang::exportDirectProgram(Prog, Best);
  if (!DirectProg.ok())
    std::fprintf(stderr, "direct export failed: %s\n",
                 DirectProg.message().c_str());
  else if (!writeFile(Cli.ExportDirect, lang::printLocusProgram(**DirectProg)))
    std::fprintf(stderr, "cannot write %s\n", Cli.ExportDirect.c_str());
  else
    std::printf("direct program written to %s\n", Cli.ExportDirect.c_str());
}

/// --native: times the best variant with the system compiler in the
/// sandbox. The emitted harness initializes arrays exactly like the
/// simulator, so the checksums must agree within --checksum-rtol; a
/// mismatch (exit 1) means the unparsed variant does not compute what the
/// simulated one did.
int runNative(const cir::Program &Best, double SimChecksum,
              const driver::OrchestratorOptions &Opts) {
  eval::NativeResult NR = eval::evaluateNative(Best, Opts.Native);
  if (!NR.Ok) {
    std::fprintf(stderr, "native run failed (%s): %s\n",
                 search::failureKindName(NR.Failure), NR.Error.c_str());
  } else {
    std::printf("native run: %.6f s (checksum %.6f)\n", NR.Seconds,
                NR.Checksum);
    if (!std::isnan(SimChecksum)) {
      double Tol = Opts.ChecksumRtol * std::max(1.0, std::abs(SimChecksum));
      if (std::abs(NR.Checksum - SimChecksum) > Tol) {
        std::fprintf(stderr,
                     "native checksum %.9f disagrees with the simulator's "
                     "%.9f (rtol %g)\n",
                     NR.Checksum, SimChecksum, Opts.ChecksumRtol);
        return 1;
      }
      std::printf("native checksum matches the simulator (rtol %g)\n",
                  Opts.ChecksumRtol);
    }
  }
  if (!NR.WorkDir.empty())
    std::printf("native workdir kept: %s\n", NR.WorkDir.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  using driver::CliMode;
  auto CliOr = driver::parseCli(argc, argv);
  if (!CliOr.ok()) {
    std::fprintf(stderr, "%s: %s\n%s", argv[0], CliOr.message().c_str(),
                 driver::cliUsage(argv[0]).c_str());
    return 2;
  }
  driver::CliOptions &Cli = *CliOr;
  driver::OrchestratorOptions &Opts = Cli.Opts;
  if (Cli.Help) {
    std::printf("%s", driver::cliHelp(argv[0]).c_str());
    return 0;
  }
  if (Cli.Mode == CliMode::Dump)
    return dumpRecordLog(Cli.DumpPath, Cli.DumpQueue);

  bool Ok = false;
  std::string CText = readFile(Cli.SourcePath, Ok);
  if (!Ok) {
    std::fprintf(stderr, "cannot read %s\n", Cli.SourcePath.c_str());
    return 1;
  }
  auto Baseline = cir::parseProgram(CText);
  if (!Baseline.ok()) {
    std::fprintf(stderr, "%s: %s\n", Cli.SourcePath.c_str(),
                 Baseline.message().c_str());
    return 1;
  }
  if (Cli.Mode == CliMode::BoundsCheck)
    return runBoundsCheck(**Baseline, Cli.LintStrict);

  if (Cli.Mode == CliMode::Discover) {
    if (Cli.Tune)
      setupTuning(Opts);
    return runDiscover(**Baseline, Opts, Cli.DiscoverTop, Cli.Tune);
  }

  std::string LocusText = readFile(Cli.ProgramPath, Ok);
  if (!Ok) {
    std::fprintf(stderr, "cannot read %s\n", Cli.ProgramPath.c_str());
    return 1;
  }
  auto Prog = lang::parseLocusProgram(LocusText);
  if (!Prog.ok()) {
    std::fprintf(stderr, "%s: %s\n", Cli.ProgramPath.c_str(),
                 Prog.message().c_str());
    return 1;
  }
  if (Cli.Mode == CliMode::RaceCheck)
    return runRaceCheck(**Baseline);
  if (Cli.Mode == CliMode::Lint)
    return runLint(**Prog, **Baseline, Cli.LintStrict);

  setupTuning(Opts);
  if (Cli.Mode == CliMode::Serve)
    Opts.Serve.WorkerArgv = [Argv = selfWorkerArgv(Cli, argv[0])](int, int) {
      return Argv;
    };
  driver::Orchestrator Orch(**Prog, **Baseline, Opts);
  if (Cli.Mode == CliMode::Worker)
    return runWorker(Orch, Cli);

  std::unique_ptr<cir::Program> Best;
  double BestChecksum = std::numeric_limits<double>::quiet_NaN();
  if (Cli.Direct || !Cli.PointPath.empty()) {
    auto R = Cli.PointPath.empty() ? Orch.runDirect()
                                   : runPointFile(Orch, Cli.PointPath);
    if (!R.ok()) {
      std::fprintf(stderr, "direct run failed: %s\n", R.message().c_str());
      return 1;
    }
    std::printf("direct variant: %.0f simulated cycles, %d transformations "
                "applied\n",
                R->Run.Cycles, R->Exec.TransformsApplied);
    for (const std::string &Line : R->Exec.Log)
      std::printf("  %s\n", Line.c_str());
    Best = std::move(R->Variant);
    BestChecksum = R->Run.Checksum;
  } else {
    auto R = Orch.runSearch();
    if (!R.ok()) {
      std::fprintf(stderr, "search failed: %s\n", R.message().c_str());
      return 1;
    }
    printSearchSummary(*R, Opts);
    if (!R->BaselineChosen)
      exportBest(**Prog, R->Search.Best, Cli);
    Best = std::move(R->BestProgram);
    if (R->BestRun.Ok)
      BestChecksum = R->BestRun.Checksum;
  }

  if (!Cli.EmitC.empty() && Best) {
    if (!writeFile(Cli.EmitC, eval::emitNativeC(*Best)))
      std::fprintf(stderr, "cannot write %s\n", Cli.EmitC.c_str());
    else
      std::printf("C source written to %s\n", Cli.EmitC.c_str());
  }
  return Cli.Native && Best ? runNative(*Best, BestChecksum, Opts) : 0;
}
