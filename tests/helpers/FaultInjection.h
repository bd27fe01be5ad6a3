//===- FaultInjection.h - Fault-injection harness ---------------*- C++ -*-===//
///
/// \file
/// A test decorator that injects classified failures into an Objective with a
/// configurable probability, kind mix, and deterministic seed. The fault
/// decision is a pure function of (point key, seed), so the clean subspace
/// is stable across runs and across independently-constructed injectors —
/// tests can compute the known-best clean point exactly and assert the
/// searchers still find it while a third of the space is on fire. Every
/// injected kind, MetricUnstable included, is permanent for its point: the
/// searchers assess each point at most once, so a "flaky once" model would
/// never be observed.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_HELPERS_FAULTINJECTION_H
#define LOCUS_TESTS_HELPERS_FAULTINJECTION_H

#include "src/search/Search.h"

#include <utility>
#include <vector>

namespace locus {
namespace search {

struct FaultInjectionOptions {
  /// Probability that a point is selected for failure injection.
  double FailureProbability = 0.3;
  /// Deterministic seed; same seed + same point => same injected kind.
  uint64_t Seed = 0x10c05;
  /// Relative weights of the injected kinds; empty means an equal mix of
  /// all seven failure kinds. Entries with kind None are ignored.
  std::vector<std::pair<FailureKind, double>> KindMix;
};

class FaultInjectingObjective : public Objective {
public:
  FaultInjectingObjective(Objective &Inner, FaultInjectionOptions Opts = {});

  /// The deterministic per-point fault decision (None = clean). Stateless:
  /// it does not consume randomness or record anything.
  FailureKind classify(const Point &P) const;

  EvalOutcome assess(const Point &P) override;

private:
  Objective &Inner;
  FaultInjectionOptions Opts;
  std::vector<std::pair<FailureKind, double>> Mix; ///< normalized KindMix
  double TotalWeight = 0;
};

} // namespace search
} // namespace locus

#endif // LOCUS_TESTS_HELPERS_FAULTINJECTION_H
