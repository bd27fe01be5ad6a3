//===- Search.h - Search module interface -----------------------*- C++ -*-===//
///
/// \file
/// The search-module interface of Section IV-B and the built-in searchers.
/// A search module receives the extracted Space and an Objective (evaluate a
/// Point, smaller metric is better) and returns the best point found within
/// a budget of assessments. Invalid points (dependent-range violations,
/// illegal transformations) report Valid = false and the search moves on,
/// exactly as the paper describes for OpenTuner.
///
/// Built-in searchers:
///  - exhaustive: odometer enumeration (small spaces, ground truth in tests)
///  - random: uniform sampling
///  - hillclimb: greedy mutation with restarts
///  - de: differential evolution on normalized coordinates
///  - bandit: AUC credit-assignment ensemble of the above three move types,
///    with tested-variant deduplication (the OpenTuner stand-in)
///  - tpe: tree-structured Parzen estimator (the HyperOpt stand-in)
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_SEARCH_H
#define LOCUS_SEARCH_SEARCH_H

#include "src/search/Space.h"
#include "src/support/Rng.h"

#include <array>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace locus {
namespace search {

/// Why an assessment failed. Empirical search over composed loop
/// transformations lives on failed points (Kruse & Finkel report large
/// invalid fractions in such spaces); collapsing every mode into one bool
/// hides whether a search is fighting illegal rewrites, crashing variants,
/// or a flaky measurement. The taxonomy is threaded from the interpreter
/// and evaluator through every searcher into per-kind counters.
enum class FailureKind : uint8_t {
  None = 0,         ///< success
  TransformIllegal, ///< the transformation recipe itself failed to execute
  InvalidPoint,     ///< dependent-range violation / module reported Illegal
  PrepareFailed,    ///< variant did not compile on the evaluator
  RuntimeTrap,      ///< variant crashed while running (OOB, bad index, ...)
  BudgetExceeded,   ///< variant blew its per-variant deadline
  ChecksumMismatch, ///< variant computed different results than the baseline
  MetricUnstable,   ///< measurement was non-finite / non-reproducible
};

inline constexpr int NumFailureKinds = 8;

/// Stable name of a failure kind ("None", "RuntimeTrap", ...).
const char *failureKindName(FailureKind K);

/// Parses a failure-kind name; sets Ok=false (and returns None) on unknown
/// names.
FailureKind parseFailureKind(std::string_view Name, bool &Ok);

/// The outcome of assessing one point: a metric (lower is better) or a
/// classified failure with a human-readable detail.
struct EvalOutcome {
  double Metric = std::numeric_limits<double>::infinity();
  FailureKind Failure = FailureKind::None;
  std::string Detail;

  bool ok() const { return Failure == FailureKind::None; }

  static EvalOutcome success(double Metric) {
    EvalOutcome O;
    O.Metric = Metric;
    return O;
  }
  static EvalOutcome fail(FailureKind K, std::string Detail = "") {
    EvalOutcome O;
    O.Failure = K;
    O.Detail = std::move(Detail);
    return O;
  }
};

/// Evaluation callback: assesses a point and reports a metric or a
/// classified failure.
class Objective {
public:
  virtual ~Objective() = default;
  virtual EvalOutcome assess(const Point &P) = 0;

  /// True when assess() may be called concurrently from multiple threads.
  /// The evaluation pool dispatches proposal batches in parallel only when
  /// the objective opts in (SearchOptions::Jobs > 1 alone is not enough);
  /// a concurrency-safe objective must build per-call interpreter/evaluator
  /// state instead of mutating anything shared.
  virtual bool concurrencySafe() const { return false; }
};

/// Base class for objectives that support batched, concurrent assessment:
/// deriving from BatchObjective asserts that assess() is reentrant, so the
/// search loop may hand a whole proposal batch (a DE generation, the next
/// stretch of an exhaustive sweep) to the evaluation pool at once.
class BatchObjective : public Objective {
public:
  bool concurrencySafe() const override { return true; }
};

/// Convenience adapter over an outcome-returning lambda. Pass ThreadSafe=true when the lambda tolerates concurrent calls (required
/// for the pool to parallelize under SearchOptions::Jobs > 1).
class LambdaObjective : public Objective {
public:
  using OutcomeFn = std::function<EvalOutcome(const Point &)>;
  explicit LambdaObjective(OutcomeFn F, bool ThreadSafe = false)
      : F(std::move(F)), ThreadSafe(ThreadSafe) {}
  EvalOutcome assess(const Point &P) override { return F(P); }
  bool concurrencySafe() const override { return ThreadSafe; }

private:
  OutcomeFn F;
  bool ThreadSafe = false;
};

struct EvalRecord {
  Point P;
  double Metric = 0;
  bool Valid = false; ///< convenience mirror of Failure == None
  FailureKind Failure = FailureKind::InvalidPoint;
  std::string Detail;
};

struct SearchOptions {
  /// Maximum number of variant assessments (the paper's per-search budget,
  /// e.g. 1,000 for DGEMM and 500 per extracted loop nest).
  int MaxEvaluations = 100;
  uint64_t Seed = 42;
  /// Records reloaded from a crash-safe journal. A proposal matching a
  /// replayed record consumes its cached outcome without calling the
  /// objective, counts toward the budget, and (because the searcher sees
  /// exactly what the original run saw) reproduces the interrupted run's
  /// trajectory before fresh evaluations continue it.
  std::vector<EvalRecord> Replay;
  /// Journal sink: called once per fresh (non-replayed) evaluation, in
  /// order. Used to append to the on-disk journal.
  std::function<void(const EvalRecord &)> OnFreshEval;

  /// Static legality oracle: returns the failure the objective would report
  /// for a point it can prove invalid without materializing the variant, or
  /// nullopt when the point must be evaluated. Pruned points count in
  /// SearchResult::PrunedStatic and otherwise flow through the searcher
  /// exactly like an evaluated failure, so the trajectory (and the best
  /// point found) is unchanged. Always invoked on the search thread, in
  /// proposal order (the oracle need not be thread-safe).
  std::function<std::optional<EvalOutcome>(const Point &)> StaticFilter;

  /// Number of concurrent evaluation workers. Proposal batches are
  /// dispatched across Jobs std::jthread workers when the objective reports
  /// concurrencySafe(); results are committed back in proposal order, so a
  /// seeded trajectory is bit-identical to the Jobs=1 run (batch widths are
  /// fixed per searcher, independent of Jobs). 1 evaluates inline.
  int Jobs = 1;
  /// Cooperative stop: when non-null and set, the evaluation driver reports
  /// the budget as exhausted at the next between-iterations check. The
  /// searcher then unwinds normally — the journal's last record is complete
  /// and synced, partial results are returned, SearchResult::Stopped is set.
  /// Wire support::shutdownFlag() here for SIGTERM/SIGINT graceful
  /// shutdown.
  const std::atomic<bool> *StopFlag = nullptr;
};

struct SearchResult {
  bool Found = false;
  /// True when the run ended because SearchOptions::StopFlag was raised
  /// rather than by exhausting MaxEvaluations or the space.
  bool Stopped = false;
  Point Best;
  double BestMetric = std::numeric_limits<double>::infinity();
  int Evaluations = 0;         ///< distinct variants assessed (incl. replay)
  int ReplayedEvaluations = 0; ///< of those, satisfied from Replay
  int InvalidPoints = 0;       ///< points rejected as invalid (any kind)
  int PrunedStatic = 0;        ///< of InvalidPoints, proven by StaticFilter
                               ///< without invoking the objective
  int PrunedStaticByRange = 0; ///< of PrunedStatic, proven by symbolic
                               ///< dependent-range resolution (filled by the
                               ///< driver from the legality oracle)
  /// Duplicate proposals served a memoized outcome instead of being
  /// re-assessed. Variant-level dedup across *distinct* points
  /// is counted separately in CacheDedupSaves.
  int DuplicateHits = 0;
  /// Per-kind failure counts, indexed by FailureKind; the entries other
  /// than None sum to InvalidPoints.
  std::array<int, NumFailureKinds> FailureCounts{};
  std::vector<EvalRecord> History;

  // Evaluation-pool observability (filled by the search loop).
  int PoolJobs = 1;  ///< concurrent evaluation workers used
  int Batches = 0;   ///< proposal batches dispatched to the pool
  int MaxBatch = 0;  ///< largest number of points assessed concurrently
  int PooledEvaluations = 0; ///< objective assessments dispatched through
                             ///< batches of size > 1 (worker utilization =
                             ///< PooledEvaluations / Evaluations)

  // Content-addressed evaluation-cache counters (filled by the driver when
  // the cache is enabled; see search::EvalCache).
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheDedupSaves = 0; ///< distinct points that materialized to an
                                ///< already-evaluated variant

  // Persistent-cache counters (filled by the driver when --cache-dir is
  // set; see search::PersistentEvalCache).
  uint64_t CacheLoadedPersistent = 0; ///< entries preloaded from the store
  uint64_t CachePersistedAppends = 0; ///< entries this run appended to it
  uint64_t CacheWarnings = 0;         ///< store I/O/format problems surfaced
  bool CacheDegraded = false;         ///< persistence disabled after an error

  int failures(FailureKind K) const {
    return FailureCounts[static_cast<size_t>(K)];
  }
};

/// A search module.
class Searcher {
public:
  virtual ~Searcher() = default;
  virtual std::string name() const = 0;
  virtual SearchResult search(const Space &S, Objective &Obj,
                              const SearchOptions &Opts) = 0;
};

std::unique_ptr<Searcher> makeExhaustiveSearcher();
std::unique_ptr<Searcher> makeRandomSearcher();
std::unique_ptr<Searcher> makeHillClimbSearcher();
std::unique_ptr<Searcher> makeDifferentialEvolutionSearcher();
std::unique_ptr<Searcher> makeBanditSearcher();
std::unique_ptr<Searcher> makeTpeSearcher();

/// Factory by name ("exhaustive", "random", "hillclimb", "de", "bandit",
/// "opentuner" (alias of bandit), "tpe", "hyperopt" (alias of tpe)); null
/// for unknown names.
std::unique_ptr<Searcher> makeSearcher(const std::string &Name);

/// Enumerates the candidate values of a parameter (used by the exhaustive
/// searcher, mutation moves, and tests). Float ranges are discretized into
/// 16 steps; permutations are not enumerated here.
std::vector<PointValue> enumerateValues(const ParamDef &P);

/// Samples a uniform random value for a parameter.
PointValue sampleValue(const ParamDef &P, Rng &R);

/// Samples a full random point.
Point samplePoint(const Space &S, Rng &R);

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_SEARCH_H
