//===- Orchestrator.h - The Locus system driver ------------------*- C++ -*-===//
///
/// \file
/// Ties the whole system together, implementing the two workflows of Fig. 2:
///
///  direct:  Locus program (no search constructs) -> transformed variant
///  search:  extract space -> search module proposes points -> each point is
///           materialized as a variant, evaluated on the machine model, the
///           metric steers the search -> best variant (or the baseline, the
///           system being non-prescriptive) plus a reusable pinned point
///           (the exported "direct program" of Section II).
///
/// The driver also performs the region-hash coherence check of Section II.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_DRIVER_ORCHESTRATOR_H
#define LOCUS_DRIVER_ORCHESTRATOR_H

#include "src/cir/Ast.h"
#include "src/eval/Evaluator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusAst.h"
#include "src/locus/Optimizer.h"
#include "src/search/EvalCache.h"
#include "src/search/FaultTolerance.h"
#include "src/search/Journal.h"
#include "src/search/Search.h"
#include "src/service/Coordinator.h"
#include "src/service/Worker.h"

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>

namespace locus {
namespace driver {

struct OrchestratorOptions {
  /// Search module to use ("bandit"/"opentuner", "tpe"/"hyperopt",
  /// "random", "hillclimb", "de", "exhaustive").
  std::string SearcherName = "bandit";
  /// Variant-assessment budget (the paper caps DGEMM at 1,000 and each
  /// extracted loop nest at 500).
  int MaxEvaluations = 100;
  uint64_t Seed = 42;
  /// Concurrent evaluation workers (the CLI's --jobs). Population searchers
  /// (de, exhaustive, random) evaluate whole proposal batches across this
  /// many std::jthread workers, each materializing its variant with its own
  /// interpreter/evaluator; results commit in proposal order, so the
  /// trajectory and best point are identical to the Jobs=1 run. When > 1,
  /// InitHook must tolerate concurrent calls (one per in-flight variant).
  int Jobs = 1;
  /// Content-addressed evaluation cache: outcomes are keyed by the hash of
  /// the *transformed* variant, so distinct points that materialize to the
  /// same code (clamped tile sizes, no-op unroll factors) are evaluated
  /// once. Never changes results — the simulator metric of a variant is
  /// deterministic — only skips repeat simulation cost. Counters are
  /// surfaced in SearchResult::CacheHits / CacheMisses / CacheDedupSaves.
  bool UseEvalCache = true;
  /// Directory of the durable evaluation-cache store shared across runs and
  /// processes (the CLI's --cache-dir); empty keeps the cache in-memory
  /// only. Outcomes persist in <dir>/evalcache.rlog (crash-safe, flock
  /// shared); any store problem degrades to in-memory with a warning,
  /// never failing the search. Requires UseEvalCache.
  std::string CacheDir;
  /// Consume the shared store without growing it (--cache-readonly).
  bool CacheReadOnly = false;
  /// Machine model and evaluation options.
  eval::EvalOptions Eval;
  /// Refuse transformations when dependences are unavailable.
  bool RequireDeps = false;
  /// Attach `omp parallel for` even to loops the parallel-safety analyzer
  /// proves racy, and let the simulator model their parallel speedup
  /// anyway (the --trust-parallel escape hatch; checksum validation still
  /// guards such variants). Propagated into Eval.TrustParallel.
  bool TrustParallel = false;
  /// Let BuiltIn.Altdesc resolve unregistered snippet names as filesystem
  /// paths. Off by default so search runs never read surprise files; the
  /// CLI enables it for the paper's external snippet-file workflow.
  bool AllowSnippetFiles = false;
  /// Named snippets for BuiltIn.Altdesc.
  std::map<std::string, std::string> Snippets;
  /// Hook to initialize evaluator inputs (index arrays, scalars) before
  /// each run; may be empty.
  std::function<void(eval::ProgramEvaluator &)> InitHook;
  /// Per-variant deadline: abort a variant (BudgetExceeded) once it runs
  /// more than this factor times the baseline's loop iterations, instead of
  /// letting a pathological variant burn the global iteration budget. 0
  /// disables; ignored when the baseline is not executable. Under
  /// NativeMetric the same factor applies to the baseline's native
  /// wall-clock time instead, bounding each sandboxed run.
  double VariantDeadlineFactor = 8.0;
  /// Measure every variant by compiling and running it natively in the
  /// subprocess sandbox (the paper's buildcmd/runcmd loop) instead of on
  /// the simulator. Fails up front with a clear diagnostic when the host
  /// has no usable compiler; callers wanting a fallback rerun with this
  /// off. The native objective is concurrency-safe (hermetic per-run
  /// workdirs), so --jobs N drives concurrent sandboxed measurements.
  bool NativeMetric = false;
  /// Compiler, flags and sandbox limits for native measurement (both
  /// NativeMetric and the CLI's post-search --native timing).
  /// Native.RunTimeoutSeconds acts as the ceiling on the derived
  /// per-variant deadline (the CLI's --native-timeout).
  eval::NativeOptions Native;
  /// Relative tolerance for checksum validation of a variant against the
  /// baseline reference (simulator or native); the CLI's --checksum-rtol.
  double ChecksumRtol = 1e-6;
  /// Guard policy: bounded retries for unstable metrics and quarantining of
  /// repeat-offender points.
  search::GuardOptions Guard;
  /// Path of the crash-safe search journal (CRC-framed records with a
  /// space-fingerprint header; see search::SearchJournal); empty disables
  /// journaling. Every fresh evaluation is appended and pushed toward
  /// stable storage per JournalSyncMode.
  std::string JournalPath;
  /// Durability of each journal append (see search::JournalSync): Full
  /// fsyncs per record (machine-crash safe, the default), None reaches the
  /// kernel only (process-crash safe).
  search::JournalSync JournalSyncMode = search::JournalSync::Full;
  /// When the journal file already exists, reload it and resume the
  /// interrupted search: journaled evaluations replay into the searcher's
  /// dedup/history state and count toward MaxEvaluations, so the run
  /// finishes the remaining budget exactly as the uninterrupted run would.
  bool ResumeFromJournal = false;
  /// Classify points against the static legality oracle before materializing
  /// a variant: points that provably violate a dependent range are counted
  /// in SearchResult::PrunedStatic and never reach the evaluator. Illegal
  /// transformations are not pruned; applyPoint reports them when it
  /// materializes the point. Never changes which best point a search finds,
  /// only how much it costs.
  bool StaticPrune = true;
  /// Run the CIR verifier after every applied transformation during concrete
  /// interpretation; a variant that fails verification is rejected as an
  /// illegal transform. Defaults on when LOCUS_VERIFY_EACH is set in the
  /// environment (the sanitizer test presets set it).
  bool VerifyEach = std::getenv("LOCUS_VERIFY_EACH") != nullptr;
  /// Tuning-service coordinator configuration (the CLI's --serve). Serve
  /// mode is on when Serve.QueueDir is non-empty: each proposal batch is
  /// dispatched to worker processes through the durable queue instead of
  /// in-process pool threads. runSearch fills Serve.SpaceFingerprint,
  /// Serve.ConfigDigest and Serve.StopFlag itself.
  service::CoordinatorOptions Serve;
  /// Cooperative stop flag (support::shutdownFlag()), threaded into
  /// SearchOptions::StopFlag and the coordinator for graceful
  /// SIGTERM/SIGINT shutdown with partial results.
  const std::atomic<bool> *StopFlag = nullptr;
};

/// Result of the direct workflow.
struct DirectResult {
  std::unique_ptr<cir::Program> Variant;
  eval::RunResult Run;
  lang::ExecOutcome Exec;
};

/// Result of the search workflow.
struct SearchWorkflowResult {
  search::Space Space;
  search::SearchResult Search;
  double BaselineCycles = 0;
  double BestCycles = 0;
  /// BaselineCycles / BestCycles for the winning variant (>= 1 by the
  /// non-prescriptive rule).
  double Speedup = 1.0;
  /// True when no variant beat the baseline and the baseline was kept.
  bool BaselineChosen = false;
  std::unique_ptr<cir::Program> BestProgram;
  eval::RunResult BestRun;
  /// Guard activity during the search (retries, quarantines).
  search::GuardStats Guard;
  /// Tuning-service activity (valid when Served).
  service::ServiceStats Service;
  bool Served = false;
};

class Orchestrator {
public:
  Orchestrator(const lang::LocusProgram &LProg, const cir::Program &Baseline,
               OrchestratorOptions Opts);

  /// Runs the direct workflow (Fig. 2 left).
  Expected<DirectResult> runDirect();

  /// Runs the search workflow (Fig. 2 right).
  Expected<SearchWorkflowResult> runSearch();

  /// Applies one pinned point (re-running an exported direct recipe).
  Expected<DirectResult> runPoint(const search::Point &Point);

  /// Runs the worker side of the tuning service: builds the exact
  /// deterministic objective the in-process search would use (same space,
  /// baseline reference, deadline, and evaluation cache) and serves queue
  /// tasks with it until the shutdown record. WOpts.SpaceFingerprint is
  /// filled from the extracted space when zero.
  Expected<service::WorkerStats> runWorker(service::WorkerOptions WOpts);

  /// Evaluates the unmodified baseline.
  Expected<eval::RunResult> evaluateBaseline();

  /// Region-name -> content-hash of the baseline (Section II coherence
  /// keys; compare against stored hashes to detect source drift).
  std::map<std::string, uint64_t> regionHashes() const;

private:
  Expected<eval::RunResult> evaluate(const cir::Program &P);
  /// The program used for interpretation, after the Section IV-C
  /// optimizations (query pre-execution, constant folding, dead-branch
  /// elimination); it is re-interpreted per assessed variant, so this pays
  /// off across the whole search.
  const lang::LocusProgram &program();
  /// Everything runSearch and runWorker share: extracted space, baseline
  /// reference, per-variant deadline, evaluation cache, and the
  /// deterministic variant objective built on them.
  struct PreparedSearch;
  Expected<std::unique_ptr<PreparedSearch>> prepareSearch();

  const lang::LocusProgram &LProg;
  const cir::Program &Baseline;
  OrchestratorOptions Opts;
  lang::ModuleRegistry Registry;
  std::unique_ptr<lang::LocusProgram> OptimizedProg;
};

} // namespace driver
} // namespace locus

#endif // LOCUS_DRIVER_ORCHESTRATOR_H
