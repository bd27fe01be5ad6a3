//===- LegalityOracle.h - Static legality classification -------*- C++ -*-===//
///
/// \file
/// Classifies search points as provably invalid BEFORE a variant is
/// materialized, from the dependent-range checks the TransformPlan recorded
/// during space extraction. Each RangeCheck entry is evaluated directly
/// against the point (the bounds are constants or other parameters).
/// Before any point is seen the checks are also evaluated SYMBOLICALLY over
/// the parameter value intervals (RangeAnalysis.h): a check that provably
/// passes for every point in the space is elided from the per-point path,
/// and the remaining checks are memoized per *sub-box* — the projection of
/// the point onto the parameters the check mentions — so a whole sub-box of
/// provably-invalid points short-circuits to the recorded verdict without
/// re-resolving the bounds.
///
/// Module calls are not modeled: an illegal or failing transformation is
/// found once, when LocusInterpreter::applyPoint materializes the variant,
/// and reported with the same failure kind and detail. A check that cannot
/// be resolved against the point (an unknown bound, a guard the point does
/// not pin, an entry under an unknown conditional) degrades to "cannot
/// prove" (nullopt), never to a wrong prediction. The search then evaluates
/// the point normally, so enabling the oracle never changes which best
/// point a search finds, only how many evaluator invocations it costs.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_LEGALITYORACLE_H
#define LOCUS_ANALYSIS_LEGALITYORACLE_H

#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/TransformPlan.h"
#include "src/cir/Ast.h"
#include "src/search/Search.h"
#include "src/search/Space.h"
#include "src/transform/Transform.h"

#include <functional>
#include <map>
#include <optional>
#include <string>

namespace locus {
namespace analysis {

/// A module-call applier. Nothing in the product calls one; perfbench's
/// rebuilt pipeline still builds one for the four-argument constructor
/// below.
using ModuleInvoker = std::function<transform::TransformResult(
    const std::string &Module, const std::string &Member,
    const std::map<std::string, PlanArg> &Args, cir::Block &Region,
    cir::Program &Prog)>;

class LegalityOracle {
public:
  /// \p Space must outlive the oracle; \p Baseline is only read here.
  LegalityOracle(const cir::Program &Baseline, const search::Space &Space,
                 TransformPlan Plan);
  /// The invoker is ignored. perfbench's rebuilt pipeline still passes one;
  /// this overload goes when the telemetry item of ROADMAP.md deletes that
  /// pipeline.
  LegalityOracle(const cir::Program &Baseline, const search::Space &Space,
                 TransformPlan Plan, ModuleInvoker)
      : LegalityOracle(Baseline, Space, std::move(Plan)) {}

  /// Returns the failure outcome the evaluation pipeline would report for a
  /// provably invalid point, or nullopt when the point cannot be proven
  /// invalid (and must be evaluated). Matches the interpreter's failure
  /// wording: a range violation is an InvalidPoint.
  std::optional<search::EvalOutcome> classify(const search::Point &P);

  /// Number of classify() calls that proved a point invalid (monitoring).
  int prunedCount() const { return Pruned; }
  /// Of prunedCount(), how many were proven by a dependent-range check
  /// (fresh or from a memoized sub-box verdict): all of them, since range
  /// checks are the only thing the oracle classifies.
  int rangePrunedCount() const { return Pruned; }
  /// Range checks proven to pass for EVERY point of the space at
  /// construction time and elided from the per-point path.
  int rangeChecksElided() const { return RangeChecksElided; }
  /// classify() range-check lookups served from a memoized sub-box verdict.
  int rangeBoxHits() const { return RangeBoxHits; }

private:
  /// Construction-time symbolic classification of one RangeCheck entry.
  struct RangeCheckInfo {
    /// Proven to pass over the whole parameter box; skip it per point.
    bool AlwaysPasses = false;
    /// Verdict is a pure function of KeyParams' point values; memoize it.
    bool Memoizable = false;
    /// Parameters the verdict depends on: guards, the checked parameter,
    /// and every parameter reachable from the Lo/Hi bound expressions
    /// (through enum option and permutation item lists).
    std::vector<std::string> KeyParams;
  };

  const search::Space &Space;
  TransformPlan Plan;

  /// Parallel to Plan.Entries (meaningful for RangeCheck entries only).
  std::vector<RangeCheckInfo> RCInfo;
  /// Sub-box memo: entry index + key-parameter projection -> verdict
  /// (nullopt records a pass). Bounded; see classify().
  std::map<std::string, std::optional<search::EvalOutcome>> RangeBoxVerdicts;

  int Pruned = 0;
  int RangeChecksElided = 0;
  int RangeBoxHits = 0;
};

/// Interval spanning every value the sampler can assign to \p Def (the
/// static domain; dependent-range links do not narrow it). Bounded for the
/// integer-valued kinds (Bool, IntRange, Pow2, LogInt); full() otherwise.
Interval paramValueInterval(const search::ParamDef &Def);

/// True when every value the sampler can assign to \p Def is a power of two.
bool paramValuesAllPow2(const search::ParamDef &Def);

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_LEGALITYORACLE_H
