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
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
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

/// An enabling condition of a parameter: the selector parameter at index
/// Param of Space::Params (an OR block, an OR expression or an optional
/// statement) pinned to arm Alt (1 for an optional statement that runs).
struct ParamGuard {
  size_t Param = 0;
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

  /// Number of distinct values: enumerateValues(*this).size() for every
  /// discrete kind (a permutation counts all N! orders, which enumeration
  /// caps). Float ranges report a nominal discretization of 1000.
  /// Saturates at UINT64_MAX.
  uint64_t cardinality() const;

  /// Whether the values form an integer sequence valueAt(0..cardinality())
  /// (every kind but the float ranges and permutations).
  bool indexed() const;
  /// The I-th value of an indexed() kind, I < cardinality().
  int64_t valueAt(uint64_t I) const;
  /// The position of \p X among an indexed() kind's values; 0 when \p X is
  /// not one of them.
  uint64_t indexOf(int64_t X) const;
};

/// A concrete value assigned to one parameter.
using PointValue = std::variant<int64_t, double, std::string, std::vector<int>>;

/// Interned parameter ids: slot I of a point laid out by this table holds
/// the value of Ids[I]. Immutable once built and shared by every point laid
/// out by it, so a point costs a vector of values, not a map of names.
struct ParamIds {
  std::vector<std::string> Ids;
  /// The slots in ascending id order: the order of Point::key() and of the
  /// point text forms.
  std::vector<uint32_t> KeyOrder;

  explicit ParamIds(std::vector<std::string> Ids);
  /// The slot of \p Id, or nullopt.
  std::optional<size_t> slot(std::string_view Id) const;
};

struct Space;

/// A point in the space: every parameter pinned to a value. The values are
/// held densely, one slot per id of the point's ParamIds; a point built
/// over a Space is laid out by Space::ids(), so slot I is Params[I].
class Point {
public:
  Point() = default;
  /// A point laid out by \p S, every value int 0 until assigned.
  explicit Point(const Space &S);

  size_t size() const { return Values.size(); }
  bool empty() const { return Values.empty(); }
  /// The value in slot \p Slot.
  PointValue &operator[](size_t Slot) { return Values[Slot]; }
  const PointValue &operator[](size_t Slot) const { return Values[Slot]; }

  /// True when slot I holds S.Params[I] for every parameter of \p S.
  bool laidOutBy(const Space &S) const;
  /// The value pinned for \p Id, or null.
  const PointValue *find(std::string_view Id) const;
  /// Pins \p Id to \p V, adding \p Id to the point's layout if missing.
  void set(const std::string &Id, PointValue V);

  /// The value pinned for \p Id, which the point must pin.
  const PointValue &at(const std::string &Id) const;
  int64_t getInt(const std::string &Id) const {
    return std::get<int64_t>(at(Id));
  }
  double getFloat(const std::string &Id) const {
    const PointValue &V = at(Id);
    return V.index() == 0 ? static_cast<double>(std::get<int64_t>(V))
                          : std::get<double>(V);
  }
  const std::string &getString(const std::string &Id) const {
    return std::get<std::string>(at(Id));
  }
  const std::vector<int> &getPerm(const std::string &Id) const {
    return std::get<std::vector<int>>(at(Id));
  }

  /// Calls \p F(Id, Value) for every pinned value, in ascending id order.
  template <typename Fn> void forEach(Fn F) const {
    for (size_t I = 0; I < Values.size(); ++I)
      F(Ids->Ids[Ids->KeyOrder[I]], Values[Ids->KeyOrder[I]]);
  }

  /// Canonical text form, used for deduplicating evaluated variants.
  std::string key() const;

  /// key() restricted to the parameters of \p S whose guards this point
  /// satisfies (and to any value \p S does not define). Two points with the
  /// same active key read the same values, so they materialize the same
  /// variant; any other difference gives different keys.
  std::string activeKey(const Space &S) const;

private:
  std::shared_ptr<const ParamIds> Ids;
  std::vector<PointValue> Values;
};

/// The whole space.
struct Space {
  std::vector<ParamDef> Params;

  const ParamDef *find(const std::string &Id) const;

  /// The interned ids of Params, built (under a lock) on first use after
  /// Params grows, and shared by copies of the space. An id must not change
  /// once interned.
  std::shared_ptr<const ParamIds> ids() const;

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

private:
  /// The table behind ids() and the lock that guards it; a copy of the
  /// space shares the table.
  struct Interned {
    mutable std::mutex Lock;
    std::shared_ptr<const ParamIds> Ids;
    Interned() = default;
    Interned(const Interned &O) { *this = O; }
    Interned &operator=(const Interned &O) {
      std::shared_ptr<const ParamIds> Shared = O.load();
      std::lock_guard<std::mutex> Held(Lock);
      Ids = std::move(Shared);
      return *this;
    }
    std::shared_ptr<const ParamIds> load() const {
      std::lock_guard<std::mutex> Held(Lock);
      return Ids;
    }
  };
  mutable Interned Cache;
};

} // namespace search
} // namespace locus

#endif // LOCUS_SEARCH_SPACE_H
