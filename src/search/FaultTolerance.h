//===- FaultTolerance.h - Pass-through evaluation guard ---------*- C++ -*-===//
///
/// \file
/// A stateless forwarder kept only so perfbench's rebuilt pipeline still
/// compiles; the product passes its objective to the searcher unwrapped.
/// Nothing here retries or quarantines:
///
///  - each point reaches the objective at most once per search, because
///    the searchers' evaluation driver serves repeated keys from its memo;
///  - the one retry of a MetricUnstable measurement is NativeEvaluator's
///    (NativeOptions::MaxUnstableRetries), in the one evaluator whose
///    measurements can be flaky.
///
/// Per-variant deadlines live in the driver's VariantObjective, which
/// derives an iteration budget from the baseline run (see
/// OrchestratorOptions::VariantDeadlineFactor). The forwarder and its two
/// empty structs go with the telemetry item of ROADMAP.md, which deletes
/// perfbench's rebuilt pipeline.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_FAULTTOLERANCE_H
#define LOCUS_SEARCH_FAULTTOLERANCE_H

#include "src/search/Search.h"

namespace locus {
namespace search {

struct GuardOptions {};

struct GuardStats {};

class GuardedObjective : public Objective {
public:
  explicit GuardedObjective(Objective &Inner, GuardOptions = {})
      : Inner(Inner) {}

  EvalOutcome assess(const Point &P) override { return Inner.assess(P); }
  bool concurrencySafe() const override { return Inner.concurrencySafe(); }

  GuardStats stats() const { return {}; }

private:
  Objective &Inner;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_FAULTTOLERANCE_H
