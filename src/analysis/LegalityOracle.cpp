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
}

std::optional<search::EvalOutcome>
LegalityOracle::classify(const search::Point &P) {
  using search::EvalOutcome;
  using search::FailureKind;

  auto PointInt = [&](const std::string &Id, int64_t &Out) {
    auto It = P.Values.find(Id);
    if (It == P.Values.end() || !std::holds_alternative<int64_t>(It->second))
      return false;
    Out = std::get<int64_t>(It->second);
    return true;
  };

  // Resolves a range bound against the point; nullopt when it is not an
  // integer constant or a parameter pinned to one (directly, or through the
  // chosen option of an enum).
  std::function<std::optional<int64_t>(const PlanArg &)> Resolve =
      [&](const PlanArg &A) -> std::optional<int64_t> {
    if (A.K == PlanArg::Kind::Int)
      return A.Int;
    if (A.K != PlanArg::Kind::Param)
      return std::nullopt;
    const search::ParamDef *Def = Space.find(A.Str);
    auto It = P.Values.find(A.Str);
    if (!Def || It == P.Values.end() ||
        !std::holds_alternative<int64_t>(It->second))
      return std::nullopt;
    int64_t V = std::get<int64_t>(It->second);
    switch (Def->Kind) {
    case search::ParamKind::Enum: {
      auto EIt = Plan.EnumValues.find(A.Str);
      if (EIt == Plan.EnumValues.end() || V < 0 ||
          static_cast<size_t>(V) >= EIt->second.size())
        return std::nullopt;
      return Resolve(EIt->second[static_cast<size_t>(V)]);
    }
    case search::ParamKind::Permutation:
    case search::ParamKind::FloatRange:
    case search::ParamKind::LogFloat:
      return std::nullopt;
    default:
      return V;
    }
  };

  for (const PlanEntry &E : Plan.Entries) {
    if (E.K != PlanEntry::Kind::RangeCheck)
      continue;
    // An entry the point may not execute (a guard it does not pin to the
    // entry's alternative, or an unknown conditional) cannot prove a
    // failure.
    bool Executes = !E.UnderUnknownCond;
    for (const PlanGuard &Guard : E.Guards) {
      int64_t V;
      if (!PointInt(Guard.ParamId, V) || V != Guard.Alt) {
        Executes = false;
        break;
      }
    }
    if (!Executes)
      continue;
    int64_t V;
    std::optional<int64_t> Lo = Resolve(E.Lo), Hi = Resolve(E.Hi);
    if (!PointInt(E.ParamId, V) || !Lo || !Hi)
      continue;
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
