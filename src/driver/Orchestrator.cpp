//===- Orchestrator.cpp - The Locus system driver ------------------------------===//

#include "src/driver/Orchestrator.h"

#include "src/locus/Optimizer.h"

#include "src/analysis/LegalityOracle.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"
#include "src/search/Journal.h"
#include "src/search/PersistentEvalCache.h"
#include "src/search/PointCodec.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>

namespace locus {
namespace driver {

namespace {

/// The transformation context every Locus program run against \p Target
/// shares: extraction, the optimizer's query pre-execution and each point's
/// materialization. \p VerifyEach is off for the runs that apply no
/// transformation.
transform::TransformContext transformContext(const OrchestratorOptions &Opts,
                                             cir::Program &Target,
                                             bool VerifyEach) {
  transform::TransformContext TCtx;
  TCtx.RequireDeps = Opts.RequireDeps;
  TCtx.Prog = &Target;
  TCtx.Snippets = Opts.Snippets;
  TCtx.VerifyEach = VerifyEach;
  TCtx.TrustParallel = Opts.TrustParallel;
  TCtx.AllowSnippetFiles = Opts.AllowSnippetFiles;
  return TCtx;
}

} // namespace

Orchestrator::Orchestrator(const lang::LocusProgram &LProg,
                           const cir::Program &Baseline,
                           OrchestratorOptions Opts)
    : LProg(LProg), Baseline(Baseline), Opts(std::move(Opts)),
      Registry(lang::ModuleRegistry::standard()) {
  // A trusted-parallel run must also trust the evaluator's schedule model:
  // racy-but-forced variants are modeled (and checksum-verified) instead of
  // silently serialized.
  if (this->Opts.TrustParallel)
    this->Opts.Eval.TrustParallel = true;
}

Expected<eval::RunResult> Orchestrator::evaluate(const cir::Program &P) {
  eval::ProgramEvaluator Eval(P, Opts.Eval);
  Status S = Eval.prepare();
  if (!S.ok())
    return Expected<eval::RunResult>::error(S.message());
  if (Opts.InitHook)
    Opts.InitHook(Eval);
  eval::RunResult R = Eval.run();
  if (!R.Ok)
    return Expected<eval::RunResult>::error(R.Error);
  return R;
}

Expected<eval::RunResult> Orchestrator::evaluateBaseline() {
  return evaluate(Baseline);
}

const lang::LocusProgram &Orchestrator::program() {
  if (!OptimizedProg) {
    std::unique_ptr<cir::Program> Clone = Baseline.clone();
    transform::TransformContext TCtx = transformContext(Opts, *Clone, false);
    OptimizedProg =
        lang::optimizeLocusProgram(LProg, *Clone, Registry, TCtx);
  }
  return *OptimizedProg;
}

std::map<std::string, uint64_t> Orchestrator::regionHashes() const {
  std::map<std::string, uint64_t> Hashes;
  for (const std::string &Name : Baseline.regionNames())
    for (const cir::Block *Region : Baseline.findRegions(Name))
      Hashes[Name] = cir::hashRegion(*Region);
  return Hashes;
}

Expected<DirectResult> Orchestrator::runDirect() {
  return runPoint(search::Point{});
}

Expected<DirectResult> Orchestrator::runPoint(const search::Point &Point) {
  DirectResult Result;
  Result.Variant = Baseline.clone();
  transform::TransformContext TCtx =
      transformContext(Opts, *Result.Variant, Opts.VerifyEach);
  lang::LocusInterpreter Interp(program(), Registry);
  Result.Exec = Interp.applyPoint(*Result.Variant, Point, TCtx);
  if (!Result.Exec.Ok)
    return Expected<DirectResult>::error(Result.Exec.Error);
  if (Result.Exec.InvalidPoint)
    return Expected<DirectResult>::error("invalid variant: " +
                                         Result.Exec.InvalidReason);
  Expected<eval::RunResult> Run = evaluate(*Result.Variant);
  if (!Run.ok())
    return Expected<DirectResult>::error(Run.message());
  Result.Run = *Run;
  return Result;
}

namespace {

/// The Objective plugged into the search module: materialize the variant for
/// a point, measure it on the machine model, and classify every failure
/// mode so the searchers can count them per kind.
///
/// A BatchObjective: every call builds its own variant clone, interpreter
/// and evaluator, and touches no mutable member except the (thread-safe)
/// EvalCache, so the evaluation pool may assess distinct points
/// concurrently.
class VariantObjective : public search::BatchObjective {
public:
  VariantObjective(const lang::LocusProgram &LProg,
                   const lang::ModuleRegistry &Registry,
                   const cir::Program &Baseline,
                   const OrchestratorOptions &Opts, double BaselineChecksum,
                   uint64_t DeadlineIterations, double NativeTimeoutSeconds,
                   search::VariantOutcomeCache *Cache)
      : LProg(LProg), Registry(Registry), Baseline(Baseline), Opts(Opts),
        BaselineChecksum(BaselineChecksum),
        DeadlineIterations(DeadlineIterations),
        NativeTimeoutSeconds(NativeTimeoutSeconds), Cache(Cache) {}

  search::EvalOutcome assess(const search::Point &P) override {
    using search::EvalOutcome;
    using search::FailureKind;
    std::unique_ptr<cir::Program> Variant = Baseline.clone();
    transform::TransformContext TCtx =
        transformContext(Opts, *Variant, Opts.VerifyEach);
    lang::LocusInterpreter Interp(LProg, Registry);
    lang::ExecOutcome Exec = Interp.applyPoint(*Variant, P, TCtx);
    if (!Exec.Ok)
      return EvalOutcome::fail(FailureKind::TransformIllegal, Exec.Error);
    if (Exec.InvalidPoint)
      return EvalOutcome::fail(Exec.IllegalTransform
                                   ? FailureKind::TransformIllegal
                                   : FailureKind::InvalidPoint,
                               Exec.InvalidReason);

    // Content-addressed cache: distinct points frequently materialize to
    // the same transformed program (clamped tile sizes, no-op unrolls);
    // the simulator metric of a variant is deterministic, so one
    // evaluation serves every structurally-identical materialization.
    search::CacheKey VariantKey;
    if (Cache) {
      VariantKey = search::makeCacheKey(cir::printProgram(*Variant));
      if (std::optional<EvalOutcome> Hit = Cache->lookup(VariantKey, P.key()))
        return *Hit;
    }

    EvalOutcome Out = evaluateVariant(*Variant);
    // MetricUnstable is never cached: the guard's bounded retries must
    // re-measure, not be served the same flaky reading back.
    if (Cache && Out.Failure != FailureKind::MetricUnstable)
      Cache->insert(VariantKey, P.key(), Out);
    return Out;
  }

private:
  search::EvalOutcome evaluateVariant(const cir::Program &Variant) const {
    using search::EvalOutcome;
    using search::FailureKind;
    if (Opts.NativeMetric)
      return evaluateVariantNative(Variant);
    // Deadline guard: a variant that runs vastly longer than the baseline
    // cannot win the non-prescriptive selection anyway; cut it off instead
    // of running to the evaluator's global runaway budget.
    eval::EvalOptions EOpts = Opts.Eval;
    if (DeadlineIterations > 0)
      EOpts.MaxIterations = std::min(EOpts.MaxIterations, DeadlineIterations);

    eval::ProgramEvaluator Eval(Variant, EOpts);
    Status Prep = Eval.prepare();
    if (!Prep.ok())
      return EvalOutcome::fail(FailureKind::PrepareFailed, Prep.message());
    if (Opts.InitHook)
      Opts.InitHook(Eval);
    eval::RunResult Run = Eval.run();
    if (!Run.Ok) {
      bool DeadlineHit =
          Run.Error.find("iteration budget exceeded") != std::string::npos;
      return EvalOutcome::fail(DeadlineHit ? FailureKind::BudgetExceeded
                                           : FailureKind::RuntimeTrap,
                               Run.Error);
    }
    if (!std::isfinite(Run.Cycles))
      return EvalOutcome::fail(FailureKind::MetricUnstable,
                               "non-finite cycle metric");
    // A variant that computes different results is an illegal rewrite the
    // legality machinery missed (or a forced transformation); reject it so
    // the search cannot exploit broken code. Skipped when the baseline is a
    // non-executable skeleton (NaN reference).
    if (!std::isnan(BaselineChecksum)) {
      double Tol = Opts.ChecksumRtol * std::max(1.0, std::abs(BaselineChecksum));
      if (std::isnan(Run.Checksum) ||
          std::abs(Run.Checksum - BaselineChecksum) > Tol)
        return EvalOutcome::fail(FailureKind::ChecksumMismatch,
                                 "checksum " + std::to_string(Run.Checksum) +
                                     " vs baseline " +
                                     std::to_string(BaselineChecksum));
    }
    return EvalOutcome::success(Run.Cycles);
  }

  /// The paper's buildcmd/runcmd loop, sandboxed: unparse, compile and run
  /// the variant in its own mkdtemp workdir with deadline + rlimit caps.
  /// Thread-safe by construction (no shared mutable state), so the pool may
  /// run several sandboxed measurements concurrently.
  search::EvalOutcome evaluateVariantNative(const cir::Program &Variant) const {
    using search::EvalOutcome;
    using search::FailureKind;
    eval::NativeOptions NOpts = Opts.Native;
    if (NativeTimeoutSeconds > 0)
      NOpts.RunTimeoutSeconds = NativeTimeoutSeconds;
    eval::NativeResult NR = eval::evaluateNative(Variant, NOpts);
    if (!NR.Ok)
      return eval::toEvalOutcome(NR);
    if (!std::isnan(BaselineChecksum)) {
      double Tol = Opts.ChecksumRtol * std::max(1.0, std::abs(BaselineChecksum));
      if (std::isnan(NR.Checksum) ||
          std::abs(NR.Checksum - BaselineChecksum) > Tol)
        return EvalOutcome::fail(FailureKind::ChecksumMismatch,
                                 "native checksum " +
                                     std::to_string(NR.Checksum) +
                                     " vs baseline " +
                                     std::to_string(BaselineChecksum));
    }
    return EvalOutcome::success(NR.Seconds);
  }

  const lang::LocusProgram &LProg;
  const lang::ModuleRegistry &Registry;
  const cir::Program &Baseline;
  const OrchestratorOptions &Opts;
  double BaselineChecksum;
  uint64_t DeadlineIterations;
  /// Per-run wall-clock deadline under NativeMetric (derived from the
  /// baseline's native time); 0 keeps the configured default.
  double NativeTimeoutSeconds;
  search::VariantOutcomeCache *Cache;
};

} // namespace

struct Orchestrator::PreparedSearch {
  search::Space Space;
  analysis::TransformPlan Plan;
  std::optional<eval::RunResult> BaseRun;
  bool BaselineRunnable = false;
  double BaselineCycles = 0;
  double BaselineChecksum = std::numeric_limits<double>::quiet_NaN();
  uint64_t DeadlineIterations = 0;
  double NativeTimeoutSeconds = 0;
  search::EvalCache MemCache;
  std::unique_ptr<search::PersistentEvalCache> DiskCache;
  search::VariantOutcomeCache *Cache = nullptr;
  std::unique_ptr<VariantObjective> Objective;
};

Expected<std::unique_ptr<Orchestrator::PreparedSearch>>
Orchestrator::prepareSearch() {
  using Ret = Expected<std::unique_ptr<PreparedSearch>>;
  auto Prep = std::make_unique<PreparedSearch>();

  // Convert the optimization space (Section IV-B).
  std::unique_ptr<cir::Program> ExtractTarget = Baseline.clone();
  transform::TransformContext TCtx =
      transformContext(Opts, *ExtractTarget, false);
  lang::LocusInterpreter Interp(program(), Registry);
  lang::ExecOutcome Extract =
      Interp.extractSpace(*ExtractTarget, Prep->Space, TCtx,
                          Opts.StaticPrune ? &Prep->Plan : nullptr);
  if (!Extract.Ok)
    return Ret::error("space extraction failed: " + Extract.Error);

  // Baseline metric (also the non-prescriptive fallback). Some baselines
  // are skeletons that only become executable once the optimization program
  // fills them in (the Kripke kernels with their address_calc placeholder);
  // those get an infinite baseline metric and no checksum reference.
  Expected<eval::RunResult> BaseRun = evaluateBaseline();
  Prep->BaselineRunnable = BaseRun.ok();
  if (BaseRun.ok())
    Prep->BaseRun = *BaseRun;
  if (Opts.NativeMetric) {
    // Native measurement: the baseline is compiled and run in the sandbox;
    // its wall-clock time is the reference metric, its checksum the
    // correctness reference, and VariantDeadlineFactor times its duration
    // the per-variant deadline (capped by the configured --native-timeout).
    if (!eval::nativeCompilerAvailable(Opts.Native.Compiler))
      return Ret::error(
          "native metric requested but compiler '" + Opts.Native.Compiler +
          "' is not available on this host; rerun without --native-metric "
          "to use the simulator");
    eval::NativeResult NBase = eval::evaluateNative(Baseline, Opts.Native);
    if (!NBase.Ok)
      return Ret::error("native baseline evaluation failed (" +
                        std::string(search::failureKindName(NBase.Failure)) +
                        "): " + NBase.Error);
    Prep->BaselineRunnable = true;
    Prep->BaselineCycles = NBase.Seconds;
    Prep->BaselineChecksum = NBase.Checksum;
    Prep->NativeTimeoutSeconds = Opts.Native.RunTimeoutSeconds;
    if (Opts.VariantDeadlineFactor > 0) {
      double Derived =
          std::max(0.1, Opts.VariantDeadlineFactor * NBase.Seconds);
      Prep->NativeTimeoutSeconds =
          Prep->NativeTimeoutSeconds > 0
              ? std::min(Prep->NativeTimeoutSeconds, Derived)
              : Derived;
    }
  } else if (Prep->BaselineRunnable) {
    Prep->BaselineCycles = BaseRun->Cycles;
    Prep->BaselineChecksum = BaseRun->Checksum;
  } else {
    Prep->BaselineCycles = std::numeric_limits<double>::infinity();
  }

  // Per-variant deadline derived from the baseline run (guard 1).
  if (!Opts.NativeMetric && Prep->BaselineRunnable && BaseRun.ok() &&
      Opts.VariantDeadlineFactor > 0 && BaseRun->LoopIterations > 0) {
    double Budget = Opts.VariantDeadlineFactor *
                    static_cast<double>(BaseRun->LoopIterations);
    Prep->DeadlineIterations = Budget >= static_cast<double>(UINT64_MAX)
                                   ? UINT64_MAX
                                   : static_cast<uint64_t>(Budget);
  }

  // Cache selection: plain in-memory, or the durable store when a cache
  // directory is configured. The persistent cache never fails construction
  // (any store problem degrades it to in-memory with a warning), so the
  // search proceeds either way. Workers share the same store through
  // --cache-dir, which is how a respawned worker starts warm.
  if (Opts.UseEvalCache) {
    if (!Opts.CacheDir.empty()) {
      search::PersistentCacheOptions PCOpts;
      PCOpts.Dir = Opts.CacheDir;
      PCOpts.ReadOnly = Opts.CacheReadOnly;
      Prep->DiskCache = std::make_unique<search::PersistentEvalCache>(PCOpts);
      Prep->Cache = Prep->DiskCache.get();
    } else {
      Prep->Cache = &Prep->MemCache;
    }
  }
  Prep->Objective = std::make_unique<VariantObjective>(
      program(), Registry, Baseline, Opts, Prep->BaselineChecksum,
      Prep->DeadlineIterations, Prep->NativeTimeoutSeconds, Prep->Cache);
  return Prep;
}

Expected<service::WorkerStats>
Orchestrator::runWorker(service::WorkerOptions WOpts) {
  auto Prep = prepareSearch();
  if (!Prep.ok())
    return Expected<service::WorkerStats>::error(Prep.message());
  if (WOpts.SpaceFingerprint == 0)
    WOpts.SpaceFingerprint = (*Prep)->Space.fingerprint();
  return service::runWorker((*Prep)->Space, *(*Prep)->Objective, WOpts);
}

Expected<SearchWorkflowResult> Orchestrator::runSearch() {
  SearchWorkflowResult Result;

  auto PrepOr = prepareSearch();
  if (!PrepOr.ok())
    return Expected<SearchWorkflowResult>::error(PrepOr.message());
  PreparedSearch &Prep = **PrepOr;
  Result.Space = Prep.Space;
  Result.BaselineCycles = Prep.BaselineCycles;
  bool BaselineRunnable = Prep.BaselineRunnable;
  std::optional<eval::RunResult> &BaseRun = Prep.BaseRun;

  // Drive the search module.
  std::unique_ptr<search::Searcher> Searcher =
      search::makeSearcher(Opts.SearcherName);
  if (!Searcher)
    return Expected<SearchWorkflowResult>::error("unknown search module: " +
                                                 Opts.SearcherName);

  // Serve mode: stand up the coordinator and dispatch assessments through
  // the durable queue. The local objective stays alive as the degradation
  // fallback, so the search finishes even if every worker dies.
  std::unique_ptr<service::Coordinator> Coord;
  std::unique_ptr<service::DistributedObjective> Dist;
  bool ServeMode = !Opts.Serve.QueueDir.empty();
  if (ServeMode) {
    service::CoordinatorOptions COpts = Opts.Serve;
    COpts.SpaceFingerprint = Result.Space.fingerprint();
    COpts.ConfigDigest =
        search::journalConfigDigest(Opts.SearcherName, Opts.Seed);
    COpts.StopFlag = Opts.StopFlag;
    auto C = service::Coordinator::start(std::move(COpts));
    if (!C.ok())
      return Expected<SearchWorkflowResult>::error(C.message());
    Coord = std::move(*C);
    Dist = std::make_unique<service::DistributedObjective>(*Coord,
                                                           *Prep.Objective);
    Result.Served = true;
  }
  search::Objective &Inner = Dist ? static_cast<search::Objective &>(*Dist)
                                  : *Prep.Objective;
  // Guards 2+3: bounded retry of unstable metrics, quarantine of repeat
  // offenders. Wrapping the *distributed* objective keeps guard decisions
  // on the coordinator, fed by the same outcomes the local run would see.
  search::GuardedObjective Guarded(Inner, Opts.Guard);
  search::SearchOptions SOpts;
  SOpts.MaxEvaluations = Opts.MaxEvaluations;
  SOpts.Seed = Opts.Seed;
  // Serve mode needs enough pool threads to keep a whole speculative batch
  // in flight across the workers; batch widths (and thus the trajectory)
  // are fixed per searcher, independent of Jobs.
  SOpts.Jobs = ServeMode
                   ? std::max(1, std::max(Opts.Jobs, Opts.Serve.Workers))
                   : Opts.Jobs;
  SOpts.StopFlag = Opts.StopFlag;

  // Static legality oracle: prune points whose dependent ranges the
  // recorded plan proves violated, before a variant is materialized. Every
  // other failure, an illegal module call included, is found once, by the
  // objective's applyPoint.
  std::optional<analysis::LegalityOracle> Oracle;
  if (Opts.StaticPrune) {
    Oracle.emplace(Baseline, Result.Space, std::move(Prep.Plan));
    SOpts.StaticFilter = [&Oracle](const search::Point &P) {
      return Oracle->classify(P);
    };
  }

  // Crash-safe journal: reload an interrupted run, then append every fresh
  // evaluation.
  search::SearchJournal Journal;
  if (!Opts.JournalPath.empty()) {
    // The header pins the journal to this space + searcher config; a
    // mismatched journal is refused with a located diagnostic instead of
    // replaying another run's points into the wrong space.
    search::JournalHeader Header;
    Header.SpaceFingerprint = Result.Space.fingerprint();
    Header.ConfigDigest =
        search::journalConfigDigest(Opts.SearcherName, Opts.Seed);
    // A missing journal loads as empty: the resumed run starts fresh.
    if (Opts.ResumeFromJournal) {
      auto Loaded = search::SearchJournal::load(Opts.JournalPath, Result.Space,
                                                &Header);
      if (!Loaded.ok())
        return Expected<SearchWorkflowResult>::error(
            "cannot resume from journal " + Opts.JournalPath + ": " +
            Loaded.message());
      if (!Loaded->Warning.empty())
        std::fprintf(stderr, "warning: %s\n", Loaded->Warning.c_str());
      SOpts.Replay = std::move(Loaded->Records);
    }
    auto J = search::SearchJournal::open(Opts.JournalPath, Opts.JournalSyncMode,
                                         Header);
    if (!J.ok())
      return Expected<SearchWorkflowResult>::error(J.message());
    Journal = std::move(*J);
    SOpts.OnFreshEval = [&Journal](const search::EvalRecord &Rec) {
      (void)Journal.append(Rec);
    };
  }

  Result.Search = Searcher->search(Result.Space, Guarded, SOpts);
  Result.Guard = Guarded.stats();
  if (Oracle)
    Result.Search.PrunedStaticByRange = Oracle->rangePrunedCount();
  if (Coord) {
    // Append the shutdown record and wind the fleet down before reading
    // final stats; the queue dir stays behind as the recoverable record.
    Coord->shutdown();
    Result.Service = Coord->stats();
  }
  if (Prep.Cache) {
    search::EvalCacheStats CStats = Prep.Cache->stats();
    Result.Search.CacheHits = CStats.Hits;
    Result.Search.CacheMisses = CStats.Misses;
    Result.Search.CacheDedupSaves = CStats.DedupSaves;
  }
  if (Prep.DiskCache) {
    search::PersistentCacheStats PStats = Prep.DiskCache->persistentStats();
    Result.Search.CacheLoadedPersistent = PStats.LoadedEntries;
    Result.Search.CachePersistedAppends = PStats.AppendedEntries;
    Result.Search.CacheWarnings = PStats.Warnings;
    Result.Search.CacheDegraded = PStats.Degraded;
  }

  // Non-prescriptive selection (Section II): keep the baseline when no
  // variant improves on it.
  if (!Result.Search.Found ||
      Result.Search.BestMetric >= Result.BaselineCycles) {
    if (!BaselineRunnable)
      return Expected<SearchWorkflowResult>::error(
          "no valid variant found and the baseline is not executable");
    Result.BaselineChosen = true;
    Result.BestProgram = Baseline.clone();
    Result.BestCycles = Result.BaselineCycles;
    if (BaseRun) // under NativeMetric the simulator run may be absent
      Result.BestRun = *BaseRun;
    Result.Speedup = 1.0;
    return Result;
  }

  Expected<DirectResult> Best = runPoint(Result.Search.Best);
  if (!Best.ok())
    return Expected<SearchWorkflowResult>::error(
        "re-materializing the best variant failed: " + Best.message());
  Result.BestProgram = std::move(Best->Variant);
  Result.BestRun = Best->Run;
  // Under NativeMetric the winning metric is the measured native seconds;
  // the re-materialized simulator run above only provides the variant/IR.
  Result.BestCycles =
      Opts.NativeMetric ? Result.Search.BestMetric : Best->Run.Cycles;
  Result.Speedup = Result.BaselineCycles / Result.BestCycles;
  return Result;
}

} // namespace driver
} // namespace locus
