//===- TransformPlan.h - Recorded transformation plan ----------*- C++ -*-===//
///
/// \file
/// A symbolic record of what a Locus optimization program will do to a code
/// region, captured as a side effect of space extraction (convertOptUniverse).
/// Each entry is either a dependent-range check on a search parameter, whose
/// bounds are reduced to PlanArgs (constants, references to search
/// parameters, or Unknown when the extraction-time value cannot be trusted
/// to equal its concrete-mode value), or the location of a mutating module
/// call.
///
/// The static legality oracle (LegalityOracle.h) classifies search points
/// whose range checks provably fail before a variant is materialized;
/// `locus_cli --lint` reads the module calls. Everything here is
/// conservative: a bound that cannot be resolved is Unknown, and Unknown
/// always degrades to "cannot prove anything", never to a wrong prediction.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_TRANSFORMPLAN_H
#define LOCUS_ANALYSIS_TRANSFORMPLAN_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace locus {
namespace analysis {

/// A symbolic argument value: a constant, a reference to a search parameter
/// (resolved against a concrete point at classification time), or Unknown.
struct PlanArg {
  enum class Kind { Unknown, Int, Float, Str, Param, List };
  Kind K = Kind::Unknown;
  int64_t Int = 0;
  double Float = 0;
  std::string Str; ///< Str payload, or the parameter id for Param
  std::vector<PlanArg> List;

  static PlanArg unknown() { return {}; }
  static PlanArg ofInt(int64_t V) {
    PlanArg A;
    A.K = Kind::Int;
    A.Int = V;
    return A;
  }
  static PlanArg ofFloat(double V) {
    PlanArg A;
    A.K = Kind::Float;
    A.Float = V;
    return A;
  }
  static PlanArg ofStr(std::string V) {
    PlanArg A;
    A.K = Kind::Str;
    A.Str = std::move(V);
    return A;
  }
  static PlanArg ofParam(std::string Id) {
    PlanArg A;
    A.K = Kind::Param;
    A.Str = std::move(Id);
    return A;
  }
  static PlanArg ofList(std::vector<PlanArg> Items) {
    PlanArg A;
    A.K = Kind::List;
    A.List = std::move(Items);
    return A;
  }

  /// True when no Unknown appears transitively (Params count as resolvable).
  bool resolvable() const {
    if (K == Kind::Unknown)
      return false;
    for (const PlanArg &I : List)
      if (!I.resolvable())
        return false;
    return true;
  }
};

/// An entry executes only when every guarding selector parameter (an OR
/// block/expression alternative or an optional statement) is pinned to the
/// recorded alternative.
struct PlanGuard {
  std::string ParamId;
  int64_t Alt = 0;
};

/// One step of the recorded plan, in execution order.
struct PlanEntry {
  enum class Kind { RangeCheck, ModuleCall };
  Kind K = Kind::ModuleCall;

  /// Selector guards; the entry is skipped when any guard is unsatisfied.
  std::vector<PlanGuard> Guards;

  /// True when the entry was recorded inside a conditional whose outcome
  /// depends on a search value: it may or may not execute, so it can never
  /// prove a failure.
  bool UnderUnknownCond = false;

  // -- RangeCheck: the dynamic dependent-range validation of a numeric
  // search parameter (Section IV-B): ParamId's value must lie in [Lo, Hi]
  // (each a constant or another parameter) and be a power of two if IsPow2.
  std::string ParamId;
  PlanArg Lo, Hi;
  bool IsPow2 = false;

  // -- ModuleCall: a mutating transformation call. Queries are never
  // recorded: their results flow into Locus variables, and any variable
  // whose extraction-time value may diverge from its concrete-mode value is
  // tracked as unusable by the extractor's taint analysis, degrading the
  // range bounds that mention it to Unknown.
  std::string Module, Member;
  std::string Region; ///< CodeReg region name the call applies to
  int Line = 0;       ///< Locus source line of the call
};

/// The whole recorded plan for one Locus program against one target.
struct TransformPlan {
  std::vector<PlanEntry> Entries;

  /// CodeReg names in execution order (including those with no entries).
  /// Concrete mode runs a CodeReg body once per matching region; when a name
  /// matches several regions the executions beyond the first see state the
  /// extractor never modeled, so the oracle drops every entry recorded after
  /// the first multiply-instantiated CodeReg.
  std::vector<std::string> CodeRegOrder;

  /// Typed option values of each enum parameter (ParamDef::Options only
  /// keeps the stringified rendering).
  std::map<std::string, std::vector<PlanArg>> EnumValues;

  /// Base item list of each permutation parameter (the concrete point only
  /// stores the index permutation).
  std::map<std::string, std::vector<PlanArg>> PermItems;
};

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_TRANSFORMPLAN_H
