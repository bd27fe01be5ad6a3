//===- Space.h - Optimization search space ----------------------*- C++ -*-===//
///
/// \file
/// The search-space representation every search module consumes. The Locus
/// space extractor (convertOptUniverse in the paper's Section IV-B) converts
/// OR blocks/statements, optional statements and the search data types
/// (enum, integer, float, permutation, poweroftwo, loginteger, logfloat)
/// into ParamDefs. Numeric parameters whose bounds reference other search
/// variables carry DependsOn* links: the space is defined with the maximal
/// bounds (computed by use-def bounds analysis) and points violating the
/// dynamic constraint are invalidated at evaluation time, exactly as
/// described for the OpenTuner integration.
///
/// The space is a tree (Section IV-B): a parameter defined inside an OR
/// alternative or an optional statement carries that selector arm as a
/// guard, and a point that does not select the arm never reads it.
/// Point::activeKey projects a point onto the parameters it reads.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SEARCH_SPACE_H
#define LOCUS_SEARCH_SPACE_H

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

namespace locus {
namespace search {

enum class ParamKind {
  Enum,        ///< one of a list of strings (also OR selectors)
  Bool,        ///< optional statements
  IntRange,    ///< integer(min..max)
  Pow2,        ///< poweroftwo(min..max): values are the powers of two
  LogInt,      ///< loginteger(min..max): log-spaced integer candidates
  FloatRange,  ///< float(min..max)
  LogFloat,    ///< logfloat(min..max)
  Permutation, ///< permutation of 0..N-1
};

/// An enabling condition of a parameter: the selector parameter ParamId (an
/// OR block, an OR expression or an optional statement) pinned to arm Alt
/// (1 for an optional statement that runs).
struct ParamGuard {
  std::string ParamId;
  int64_t Alt = 0;
  bool operator==(const ParamGuard &) const = default;
};

/// One dimension of the optimization space.
struct ParamDef {
  std::string Id;    ///< stable identity across extraction and execution
  std::string Label; ///< human-readable name (the Locus variable name)
  ParamKind Kind = ParamKind::Enum;

  std::vector<std::string> Options; ///< Enum
  int64_t Min = 0, Max = 0;         ///< integer kinds
  double FMin = 0, FMax = 0;        ///< float kinds
  int PermSize = 0;                 ///< Permutation

  /// When set, the effective max/min of this parameter at a concrete point
  /// is the value of the referenced parameter (dependent ranges).
  std::string DependsOnMaxParam;
  std::string DependsOnMinParam;

  /// The selector arms, outermost first, on whose path the parameter's
  /// defining search construct sits; empty when it always executes. Its
  /// value is read only when that construct executes, so a point that does
  /// not satisfy every guard never reads it. Derived from the program text
  /// like Id, so it is not part of Space::fingerprint().
  std::vector<ParamGuard> Guards;

  /// Number of distinct values (1 for empty/degenerate, saturates at
  /// INT64_MAX). Float ranges report a nominal discretization of 1000.
  uint64_t cardinality() const;
};

/// A concrete value assigned to one parameter.
using PointValue = std::variant<int64_t, double, std::string, std::vector<int>>;

struct Space;

/// A point in the space: every parameter pinned to a value.
struct Point {
  std::map<std::string, PointValue> Values;

  int64_t getInt(const std::string &Id) const;
  double getFloat(const std::string &Id) const;
  const std::string &getString(const std::string &Id) const;
  const std::vector<int> &getPerm(const std::string &Id) const;

  /// Canonical text form, used for deduplicating evaluated variants.
  std::string key() const;

  /// key() restricted to the parameters of \p S whose guards this point
  /// satisfies (and to any value \p S does not define). Two points with the
  /// same active key read the same values, so they materialize the same
  /// variant; any other difference gives different keys.
  std::string activeKey(const Space &S) const;
};

/// The whole space.
struct Space {
  std::vector<ParamDef> Params;

  const ParamDef *find(const std::string &Id) const;

  /// Cross-product of all parameter cardinalities (saturating).
  uint64_t fullSize() const;

  /// Product over value parameters only (excluding OR selectors and
  /// optional booleans) — the convention under which the paper reports the
  /// 34,012,224-variant space of Fig. 7. Selector parameters carry Labels
  /// beginning with "or:" / "opt:".
  uint64_t valueSize() const;

  /// Renders a human-readable summary.
  std::string describe() const;

  /// Canonical 64-bit fingerprint of the space definition: every ParamDef
  /// field, in declaration order, feeds the hash. Two extractions of the
  /// same program produce the same fingerprint; any structural change —
  /// parameter added, bound widened, option renamed — changes it. Stored in
  /// journal headers so --resume can refuse a journal from another space.
  uint64_t fingerprint() const;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_SPACE_H
