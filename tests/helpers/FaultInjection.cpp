//===- FaultInjection.cpp - Fault-injection harness -----------------------===//

#include "tests/helpers/FaultInjection.h"

#include "src/support/Hashing.h"

namespace locus {
namespace search {

namespace {

/// Maps 64 hash bits to [0, 1).
double hashToUnit(uint64_t H) {
  return static_cast<double>(H >> 11) * 0x1p-53;
}

} // namespace

FaultInjectingObjective::FaultInjectingObjective(Objective &Inner,
                                                 FaultInjectionOptions Opts)
    : Inner(Inner), Opts(std::move(Opts)) {
  if (this->Opts.KindMix.empty()) {
    for (int I = 1; I < NumFailureKinds; ++I)
      Mix.emplace_back(static_cast<FailureKind>(I), 1.0);
  } else {
    for (const auto &[K, W] : this->Opts.KindMix)
      if (K != FailureKind::None && W > 0)
        Mix.emplace_back(K, W);
  }
  for (const auto &[K, W] : Mix)
    TotalWeight += W;
}

FailureKind FaultInjectingObjective::classify(const Point &P) const {
  if (Mix.empty() || Opts.FailureProbability <= 0)
    return FailureKind::None;
  uint64_t H = fnv1a(P.key(), hashCombine(0xcbf29ce484222325ULL, Opts.Seed));
  if (hashToUnit(H) >= Opts.FailureProbability)
    return FailureKind::None;
  double Draw = hashToUnit(hashCombine(H, 0x51ab1e5eedULL)) * TotalWeight;
  for (const auto &[K, W] : Mix) {
    Draw -= W;
    if (Draw < 0)
      return K;
  }
  return Mix.back().first;
}

EvalOutcome FaultInjectingObjective::assess(const Point &P) {
  FailureKind K = classify(P);
  if (K == FailureKind::None)
    return Inner.assess(P);
  return EvalOutcome::fail(K, std::string("injected ") + failureKindName(K));
}

} // namespace search
} // namespace locus
