//===- RangeAnalysis.h - Symbolic interval ranges over CIR -----*- C++ -*-===//
///
/// \file
/// A symbolic interval/affine-range dataflow over the MiniC AST. Environments
/// map scalar identifiers to saturating [lo, hi] intervals (INT64_MIN /
/// INT64_MAX act as -inf / +inf sentinels), joined at control-flow merges and
/// widened at loop heads so the fixpoint terminates on symbolic bounds.
///
/// Three consumers:
///  - checkBounds(): the static array-bounds verifier behind
///    `locus_cli --bounds-check` and the `--lint` fold-in. Every subscript of
///    every array access is proven within its declared extent, or reported
///    with the access, the offending interval, and the loop that produced it.
///  - loopBoundRanges(): per-loop init/limit intervals consumed by
///    RegionDiscovery to refine trip counts where evalConstInt() fails
///    (e.g. `for (i = 0; i < n; ...)` with `int n = 40;` in scope).
///  - iterationBox() + envAtBlock(): the post-transform iteration-space
///    containment cross-check run by verifyAfterTransform().
///
/// Everything here is conservative: saturated endpoints mean "unknown in that
/// direction", and all verdicts degrade toward "cannot prove", never toward a
/// wrong claim.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_RANGEANALYSIS_H
#define LOCUS_ANALYSIS_RANGEANALYSIS_H

#include "src/cir/Ast.h"
#include "src/support/Diag.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace locus {
namespace analysis {

//===----------------------------------------------------------------------===//
// Saturating scalar arithmetic
//===----------------------------------------------------------------------===//

/// Saturating add: INT64_MIN / INT64_MAX are absorbing (-inf dominates when
/// both sentinels meet, which only happens on degenerate inputs).
int64_t satAdd(int64_t A, int64_t B);
/// Saturating negate: maps one sentinel to the other.
int64_t satNeg(int64_t A);
/// satAdd(A, satNeg(B)).
int64_t satSub(int64_t A, int64_t B);
/// Saturating multiply; 0 absorbs even against sentinels (0 * inf == 0,
/// sound because a saturated endpoint stands for "some value beyond range").
int64_t satMul(int64_t A, int64_t B);

//===----------------------------------------------------------------------===//
// Interval
//===----------------------------------------------------------------------===//

/// A saturating integer interval [Lo, Hi]. INT64_MIN as Lo and INT64_MAX as
/// Hi mean unbounded in that direction. Empty is the bottom element.
struct Interval {
  int64_t Lo = INT64_MIN;
  int64_t Hi = INT64_MAX;
  bool Empty = false;

  static Interval full() { return {}; }
  static Interval none() {
    Interval I;
    I.Empty = true;
    I.Lo = 0;
    I.Hi = -1;
    return I;
  }
  static Interval point(int64_t V) {
    Interval I;
    I.Lo = I.Hi = V;
    return I;
  }
  /// Normalizing constructor: Lo > Hi yields the empty interval.
  static Interval make(int64_t Lo, int64_t Hi) {
    if (Lo > Hi)
      return none();
    Interval I;
    I.Lo = Lo;
    I.Hi = Hi;
    return I;
  }

  bool isFull() const { return !Empty && Lo == INT64_MIN && Hi == INT64_MAX; }
  /// Both endpoints are real (non-sentinel) values.
  bool bounded() const { return !Empty && Lo != INT64_MIN && Hi != INT64_MAX; }

  bool containsValue(int64_t V) const { return !Empty && Lo <= V && V <= Hi; }
  /// Interval containment; the empty interval is contained in everything.
  bool contains(const Interval &O) const {
    if (O.Empty)
      return true;
    return !Empty && Lo <= O.Lo && O.Hi <= Hi;
  }

  bool operator==(const Interval &O) const {
    return Empty == O.Empty && (Empty || (Lo == O.Lo && Hi == O.Hi));
  }
  bool operator!=(const Interval &O) const { return !(*this == O); }

  /// "[lo, hi]" with "-inf" / "+inf" for saturated endpoints, "[]" if empty.
  std::string str() const;
};

/// Least upper bound (interval hull).
Interval join(const Interval &A, const Interval &B);
/// Greatest lower bound (intersection).
Interval meet(const Interval &A, const Interval &B);
/// Classic widening: any endpoint that moved from Old to New jumps straight
/// to its sentinel, guaranteeing loop-fixpoint termination.
Interval widen(const Interval &Old, const Interval &New);

Interval rangeAdd(const Interval &A, const Interval &B);
Interval rangeSub(const Interval &A, const Interval &B);
Interval rangeMul(const Interval &A, const Interval &B);
/// C truncating division; full() when the divisor interval spans 0.
Interval rangeDiv(const Interval &A, const Interval &B);
/// C remainder; usable bounds only for constant non-zero divisors.
Interval rangeMod(const Interval &A, const Interval &B);
Interval rangeMin(const Interval &A, const Interval &B);
Interval rangeMax(const Interval &A, const Interval &B);
Interval rangeNeg(const Interval &A);

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

/// An abstract store: scalar name -> value interval. Names absent from the
/// environment evaluate to full().
using RangeEnv = std::map<std::string, Interval>;

/// Evaluates \p E over \p Env. min/max intrinsic calls are interpreted;
/// comparisons and logical operators yield [0, 1]; array loads, float
/// literals and unknown calls yield full(). Unroll's remainder start
/// `X + ((Y - X) / F) * F` (literal F > 0) is kept within join(X, Y).
Interval evalRange(const cir::Expr &E, const RangeEnv &Env);

//===----------------------------------------------------------------------===//
// Bounds verification
//===----------------------------------------------------------------------===//

/// One subscript the analysis could not prove in bounds.
struct SubscriptFinding {
  enum class Kind {
    Violation, ///< a finite endpoint lies outside the valid range
    Unproven   ///< a saturated/widened endpoint defeats the proof
  };
  Kind K = Kind::Unproven;
  std::string Array;     ///< array name
  int Dim = 0;           ///< 0-based subscript position
  int64_t Extent = 0;    ///< declared extent of that dimension
  std::string IndexText; ///< unparsed index expression
  Interval Range;        ///< computed interval of the index
  support::SrcLoc Loc;   ///< location of the access
  std::string Region;    ///< enclosing Locus region name, if any
  /// Innermost enclosing loop whose variable the index mentions.
  std::string LoopVar;
  support::SrcLoc LoopLoc;
  /// Every point of Range is out of bounds (not just the extremes). Only
  /// definite findings are hard post-transform verification errors; interval
  /// subtraction loses cross-variable correlation (e.g. skewed subscripts),
  /// so a may-out-of-bounds interval is not proof of a broken rewrite.
  bool Definite = false;

  /// Witness message without the location prefix and region suffix, for
  /// embedding in a Diag that carries Loc and Region itself.
  std::string witness() const;

  /// Located one-line witness, e.g.
  /// "12:9: A[i][j]: subscript 2 ranges over [0, 32] but extent is 32
  ///  (valid 0..31); indexed by loop `j` at 11:5".
  std::string render() const;
};

/// Result of a whole-program bounds scan.
struct BoundsReport {
  int SubscriptsChecked = 0; ///< (access, dimension) pairs visited
  int Proven = 0;            ///< of those, proven within extents
  std::vector<SubscriptFinding> Findings;

  int violations() const;
  int unproven() const;
  bool clean() const { return Findings.empty(); }
  /// Multi-line human-readable report (summary + one line per finding).
  std::string render() const;
};

/// Proves every subscript of every array access in \p P within its declared
/// extents, or reports a located finding. Accesses under provably-empty
/// loops are vacuously proven.
BoundsReport checkBounds(const cir::Program &P);

//===----------------------------------------------------------------------===//
// Loop ranges / iteration boxes
//===----------------------------------------------------------------------===//

/// Intervals of a loop's init and exclusive limit expressions at loop entry.
struct LoopRange {
  Interval Init;  ///< interval of the init expression
  Interval Limit; ///< interval of the EXCLUSIVE upper limit (Bound, +1 if <=)
};

/// Entry-environment init/limit intervals for every loop in \p P.
std::map<const cir::ForStmt *, LoopRange>
loopBoundRanges(const cir::Program &P);

/// The abstract environment at the entry of \p Target (a block inside \p P).
/// Empty when \p Target is not reachable by the walk.
RangeEnv envAtBlock(const cir::Program &P, const cir::Block *Target);

/// Name -> value interval of every loop variable inside \p B (joined when
/// several loops share a name, e.g. a main/remainder pair), evaluated under
/// \p Base. This is the nest's iteration-space box.
std::map<std::string, Interval> iterationBox(const cir::Block &B,
                                             const RangeEnv &Base);

/// Declared array extents of \p P (globals and local declarations, flat).
std::map<std::string, std::vector<int64_t>>
arrayExtents(const cir::Program &P);

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_RANGEANALYSIS_H
