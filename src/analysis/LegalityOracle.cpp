//===- LegalityOracle.cpp - Static legality classification ----------------===//

#include "src/analysis/LegalityOracle.h"

#include <set>
#include <variant>

namespace locus {
namespace analysis {

namespace {

bool isPow2(int64_t X) { return X > 0 && (X & (X - 1)) == 0; }

} // namespace

LegalityOracle::LegalityOracle(const cir::Program &Baseline,
                               const search::Space &Space, TransformPlan Plan)
    : Space(Space), Plan(std::move(Plan)) {
  // Drop entries the extractor's single-execution model cannot vouch for:
  // everything after the first CodeReg whose name matches several regions
  // (its own entries still describe the first execution and stay).
  std::set<std::string> Dropped;
  bool SawMulti = false;
  for (const std::string &Name : this->Plan.CodeRegOrder) {
    if (SawMulti)
      Dropped.insert(Name);
    if (Baseline.findRegions(Name).size() > 1)
      SawMulti = true;
  }
  if (!Dropped.empty()) {
    auto &Entries = this->Plan.Entries;
    for (size_t I = 0; I < Entries.size(); ++I) {
      if (Dropped.count(Entries[I].Region)) {
        Entries.resize(I);
        break;
      }
    }
  }
  resolveIds();
}

LegalityOracle::Arg LegalityOracle::resolveArg(const PlanArg &A) const {
  Arg Out;
  if (A.K == PlanArg::Kind::Int) {
    Out.K = Arg::Kind::Int;
    Out.Int = A.Int;
  } else if (A.K == PlanArg::Kind::Param) {
    std::optional<size_t> Slot = Ids->slot(A.Str);
    if (Slot) {
      Out.K = Arg::Kind::Param;
      Out.Slot = *Slot;
    }
  }
  return Out;
}

void LegalityOracle::resolveIds() {
  Ids = Space.ids();
  Options.resize(Space.Params.size());
  for (const auto &[Id, Values] : Plan.EnumValues) {
    std::optional<size_t> Slot = Ids->slot(Id);
    if (!Slot || Space.Params[*Slot].Kind != search::ParamKind::Enum)
      continue;
    for (const PlanArg &V : Values)
      Options[*Slot].push_back(resolveArg(V));
  }
  for (size_t I = 0; I < Plan.Entries.size(); ++I) {
    const PlanEntry &E = Plan.Entries[I];
    if (E.K != PlanEntry::Kind::RangeCheck)
      continue;
    std::optional<size_t> Slot = Ids->slot(E.ParamId);
    if (!Slot)
      continue; // no point of the space pins it: nothing to prove
    Checks.push_back({I, *Slot, resolveArg(E.Lo), resolveArg(E.Hi)});
  }
}

std::optional<int64_t> LegalityOracle::resolve(const search::Point &P,
                                               bool Dense,
                                               const Arg &A) const {
  if (A.K == Arg::Kind::Int)
    return A.Int;
  if (A.K == Arg::Kind::Unknown)
    return std::nullopt;
  const int64_t *V = intAt(P, Dense, A.Slot);
  if (!V)
    return std::nullopt;
  switch (Space.Params[A.Slot].Kind) {
  case search::ParamKind::Enum: {
    const std::vector<Arg> &Opts = Options[A.Slot];
    if (Opts.empty() || *V < 0 || static_cast<size_t>(*V) >= Opts.size())
      return std::nullopt;
    return resolve(P, Dense, Opts[static_cast<size_t>(*V)]);
  }
  case search::ParamKind::Permutation:
  case search::ParamKind::FloatRange:
  case search::ParamKind::LogFloat:
    return std::nullopt;
  default:
    return *V;
  }
}

const int64_t *LegalityOracle::intAt(const search::Point &P, bool Dense,
                                     size_t Slot) const {
  const search::PointValue *V =
      Dense ? &P[Slot] : P.find(Space.Params[Slot].Id);
  return V ? std::get_if<int64_t>(V) : nullptr;
}

std::optional<search::EvalOutcome>
LegalityOracle::classify(const search::Point &P) {
  using search::EvalOutcome;
  using search::FailureKind;

  bool Dense = P.laidOutBy(Space);
  for (const Check &C : Checks) {
    const PlanEntry &E = Plan.Entries[C.Entry];
    // An entry the point may not execute (a guard it does not pin to the
    // entry's alternative, or an unknown conditional) cannot prove a
    // failure.
    bool Executes = !E.UnderUnknownCond;
    for (const PlanGuard &Guard : E.Guards) {
      const int64_t *Arm = intAt(P, Dense, Guard.Param);
      if (!Arm || *Arm != Guard.Alt) {
        Executes = false;
        break;
      }
    }
    if (!Executes)
      continue;
    const int64_t *Pinned = intAt(P, Dense, C.Param);
    std::optional<int64_t> Lo = resolve(P, Dense, C.Lo),
                           Hi = resolve(P, Dense, C.Hi);
    if (!Pinned || !Lo || !Hi)
      continue;
    int64_t V = *Pinned;
    // Wording matches the interpreter's dynamic invalidation exactly.
    if (V < *Lo || V > *Hi) {
      ++Pruned;
      return EvalOutcome::fail(FailureKind::InvalidPoint,
                               E.ParamId + "=" + std::to_string(V) +
                                   " violates range " + std::to_string(*Lo) +
                                   ".." + std::to_string(*Hi));
    }
    if (E.IsPow2 && !isPow2(V)) {
      ++Pruned;
      return EvalOutcome::fail(FailureKind::InvalidPoint,
                               E.ParamId + "=" + std::to_string(V) +
                                   " is not a power of two");
    }
  }
  return std::nullopt;
}

} // namespace analysis
} // namespace locus
