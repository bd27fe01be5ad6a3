//===- LegalityOracle.cpp - Static legality classification ----------------===//

#include "src/analysis/LegalityOracle.h"

#include <set>
#include <variant>

namespace locus {
namespace analysis {

namespace {

bool isPow2(int64_t X) { return X > 0 && (X & (X - 1)) == 0; }

enum class GuardState { Sat, Unsat, Unknown };

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

  // Symbolic pre-classification of every RangeCheck: evaluate the check over
  // the parameter value intervals once, here, instead of once per point.
  RCInfo.resize(this->Plan.Entries.size());
  for (size_t I = 0; I < this->Plan.Entries.size(); ++I) {
    const PlanEntry &E = this->Plan.Entries[I];
    if (E.K != PlanEntry::Kind::RangeCheck)
      continue;
    RangeCheckInfo &Info = RCInfo[I];

    auto ArgInterval = [&](const PlanArg &A) -> Interval {
      switch (A.K) {
      case PlanArg::Kind::Int:
        return Interval::point(A.Int);
      case PlanArg::Kind::Param: {
        const search::ParamDef *D = this->Space.find(A.Str);
        return D ? paramValueInterval(*D) : Interval::full();
      }
      default:
        return Interval::full();
      }
    };
    const search::ParamDef *VD = this->Space.find(E.ParamId);
    Interval V = VD ? paramValueInterval(*VD) : Interval::full();
    Interval LoI = ArgInterval(E.Lo);
    Interval HiI = ArgInterval(E.Hi);
    // Passes for every point iff the smallest value clears the largest
    // possible lower bound and the largest clears the smallest upper bound.
    if (V.bounded() && LoI.Hi != INT64_MAX && HiI.Lo != INT64_MIN &&
        V.Lo >= LoI.Hi && V.Hi <= HiI.Lo &&
        (!E.IsPow2 || (VD && paramValuesAllPow2(*VD)))) {
      Info.AlwaysPasses = true;
      ++RangeChecksElided;
      continue;
    }

    // Otherwise the verdict is a pure function of the point's values of the
    // guards, the checked parameter, and every parameter reachable from the
    // bound expressions (enum options and permutation items included, since
    // Resolve() consults them).
    std::set<std::string> Keys;
    std::function<void(const PlanArg &)> CollectKeys =
        [&](const PlanArg &A) {
          for (const PlanArg &Sub : A.List)
            CollectKeys(Sub);
          if (A.K != PlanArg::Kind::Param || !Keys.insert(A.Str).second)
            return;
          const search::ParamDef *D = this->Space.find(A.Str);
          if (!D)
            return;
          if (D->Kind == search::ParamKind::Enum) {
            auto It = this->Plan.EnumValues.find(A.Str);
            if (It != this->Plan.EnumValues.end())
              for (const PlanArg &Opt : It->second)
                CollectKeys(Opt);
          } else if (D->Kind == search::ParamKind::Permutation) {
            auto It = this->Plan.PermItems.find(A.Str);
            if (It != this->Plan.PermItems.end())
              for (const PlanArg &Item : It->second)
                CollectKeys(Item);
          }
        };
    for (const PlanGuard &G : E.Guards)
      Keys.insert(G.ParamId);
    Keys.insert(E.ParamId);
    CollectKeys(E.Lo);
    CollectKeys(E.Hi);
    Info.Memoizable = true;
    Info.KeyParams.assign(Keys.begin(), Keys.end());
  }
}

Interval paramValueInterval(const search::ParamDef &Def) {
  using search::ParamKind;
  switch (Def.Kind) {
  case ParamKind::Bool:
  case ParamKind::IntRange:
  case ParamKind::Pow2:
  case ParamKind::LogInt: {
    std::vector<search::PointValue> Vals = search::enumerateValues(Def);
    if (Vals.empty())
      return Interval::full();
    Interval I = Interval::none();
    for (const search::PointValue &V : Vals) {
      if (!std::holds_alternative<int64_t>(V))
        return Interval::full();
      I = join(I, Interval::point(std::get<int64_t>(V)));
    }
    return I;
  }
  default:
    return Interval::full();
  }
}

bool paramValuesAllPow2(const search::ParamDef &Def) {
  using search::ParamKind;
  if (Def.Kind != ParamKind::Bool && Def.Kind != ParamKind::IntRange &&
      Def.Kind != ParamKind::Pow2 && Def.Kind != ParamKind::LogInt)
    return false;
  std::vector<search::PointValue> Vals = search::enumerateValues(Def);
  if (Vals.empty())
    return false;
  for (const search::PointValue &V : Vals)
    if (!std::holds_alternative<int64_t>(V) || !isPow2(std::get<int64_t>(V)))
      return false;
  return true;
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

  for (size_t EIdx = 0; EIdx < Plan.Entries.size(); ++EIdx) {
    const PlanEntry &E = Plan.Entries[EIdx];
    const RangeCheckInfo &Info = RCInfo[EIdx];
    if (E.K != PlanEntry::Kind::RangeCheck || Info.AlwaysPasses)
      continue; // a module call, or proven over the whole parameter box
    GuardState G = GuardState::Sat;
    for (const PlanGuard &Guard : E.Guards) {
      int64_t V;
      if (!PointInt(Guard.ParamId, V)) {
        G = GuardState::Unknown;
      } else if (V != Guard.Alt) {
        G = GuardState::Unsat;
        break;
      }
    }
    if (G == GuardState::Unsat)
      continue;
    bool Certain = G == GuardState::Sat && !E.UnderUnknownCond;

    // Sub-box memo: the verdict is a pure function of the point's values
    // of KeyParams, so one resolution serves the whole sub-box sharing
    // that projection. Non-integer values cannot influence the verdict
    // beyond their kind, so they key as "?".
    std::string BoxKey;
    if (Info.Memoizable) {
      BoxKey = std::to_string(EIdx);
      for (const std::string &Id : Info.KeyParams) {
        auto It = P.Values.find(Id);
        BoxKey += "|" + Id + "=";
        if (It != P.Values.end() &&
            std::holds_alternative<int64_t>(It->second))
          BoxKey += std::to_string(std::get<int64_t>(It->second));
        else
          BoxKey += "?";
      }
      auto Hit = RangeBoxVerdicts.find(BoxKey);
      if (Hit != RangeBoxVerdicts.end()) {
        ++RangeBoxHits;
        if (Hit->second) {
          ++Pruned;
          return Hit->second;
        }
        continue;
      }
    }
    auto Remember = [&](const std::optional<EvalOutcome> &Out) {
      if (!Info.Memoizable)
        return;
      if (RangeBoxVerdicts.size() > 65536)
        RangeBoxVerdicts.clear();
      RangeBoxVerdicts.emplace(BoxKey, Out);
    };

    if (!Certain) { // may not execute: cannot prove a failure
      Remember(std::nullopt);
      continue;
    }
    int64_t V;
    std::optional<int64_t> Lo = Resolve(E.Lo), Hi = Resolve(E.Hi);
    if (!PointInt(E.ParamId, V) || !Lo || !Hi) {
      Remember(std::nullopt);
      continue;
    }
    // Wording matches the interpreter's dynamic invalidation exactly.
    if (V < *Lo || V > *Hi) {
      EvalOutcome Out = EvalOutcome::fail(
          FailureKind::InvalidPoint, E.ParamId + "=" + std::to_string(V) +
                                         " violates range " +
                                         std::to_string(*Lo) + ".." +
                                         std::to_string(*Hi));
      Remember(Out);
      ++Pruned;
      return Out;
    }
    if (E.IsPow2 && !isPow2(V)) {
      EvalOutcome Out = EvalOutcome::fail(FailureKind::InvalidPoint,
                                          E.ParamId + "=" +
                                              std::to_string(V) +
                                              " is not a power of two");
      Remember(Out);
      ++Pruned;
      return Out;
    }
    Remember(std::nullopt);
  }
  return std::nullopt;
}

} // namespace analysis
} // namespace locus
