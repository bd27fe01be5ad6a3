//===- LegalityOracle.h - Static legality classification -------*- C++ -*-===//
///
/// \file
/// Classifies search points as provably invalid BEFORE a variant is
/// materialized, from the dependent-range checks the TransformPlan recorded
/// during space extraction. Each RangeCheck entry is evaluated directly
/// against the point (the bounds are constants or other parameters); two
/// bound lookups per check cost less than any memo keyed on the point.
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
  /// Of prunedCount(), how many were proven by a dependent-range check:
  /// all of them, since range checks are the only thing the oracle
  /// classifies.
  int rangePrunedCount() const { return Pruned; }

private:
  /// A range bound with its parameter id resolved to a slot of the space.
  struct Arg {
    enum class Kind { Unknown, Int, Param };
    Kind K = Kind::Unknown;
    int64_t Int = 0;
    size_t Slot = 0;
  };
  /// A range-check entry whose parameter the space defines.
  struct Check {
    size_t Entry; ///< index into Plan.Entries
    size_t Param;
    Arg Lo, Hi;
  };

  /// Resolves every parameter id of the plan to a slot, once.
  void resolveIds();
  Arg resolveArg(const PlanArg &A) const;
  /// The bound's value at \p P (\p Dense: laid out by the space): a
  /// constant, or a parameter pinned to one (directly, or through the
  /// chosen option of an enum); nullopt when it is neither.
  std::optional<int64_t> resolve(const search::Point &P, bool Dense,
                                 const Arg &A) const;
  const int64_t *intAt(const search::Point &P, bool Dense, size_t Slot) const;

  const search::Space &Space;
  TransformPlan Plan;
  std::shared_ptr<const search::ParamIds> Ids;
  std::vector<Check> Checks;
  /// Per slot, the resolved options of an enum parameter the plan types.
  std::vector<std::vector<Arg>> Options;
  int Pruned = 0;
};

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_LEGALITYORACLE_H
