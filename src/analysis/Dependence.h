//===- Dependence.h - Data dependence analysis -----------------*- C++ -*-===//
///
/// \file
/// Data-dependence analysis over MiniC loop nests, in the style of the
/// dependence tests the RoseLocus modules rely on in the paper (Section
/// IV-A.2). Subscripts are put in affine form; ZIV / strong-SIV / GCD tests
/// produce direction vectors which legality queries for interchange, tiling,
/// unroll-and-jam, distribution and fusion consume.
///
/// When any access or loop bound is non-affine the analysis reports
/// "dependences unavailable" (compute() returns nullopt) — this is the
/// IsDepAvailable query of the Fig. 13 generic optimization program.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_DEPENDENCE_H
#define LOCUS_ANALYSIS_DEPENDENCE_H

#include "src/analysis/Affine.h"
#include "src/cir/Ast.h"
#include "src/support/Diag.h"

#include <optional>
#include <string>
#include <vector>

namespace locus {
namespace analysis {

/// Classic dependence kinds.
enum class DepKind { Flow, Anti, Output };

/// A dependence between two leaf statements with a direction vector over
/// their common loops: '<', '=', '>' or '*' (unknown).
struct Dependence {
  int SrcStmt = 0;
  int DstStmt = 0;
  std::string Array;
  DepKind Kind = DepKind::Flow;
  /// True for scalar (unsubscripted) dependences; loop distribution must
  /// keep scalar-linked statements together.
  bool IsScalar = false;
  std::vector<char> Dirs;
  std::vector<const cir::ForStmt *> CommonLoops;

  /// True when the dependence is carried by loop \p Level: some plausible
  /// vector has its first non-'=' at Level. Exact, in O(Level).
  bool mayBeCarriedBy(size_t Level) const;

  /// The concrete vectors Dirs stands for: every '*' expanded to '<', '='
  /// and '>', keeping the lexicographically positive ones, and all-'='
  /// only when the source precedes the destination textually (or an
  /// anti dependence within one statement). Enumerates up to 3^k vectors;
  /// the interchange, tiling and unroll-and-jam legality queries walk it.
  std::vector<std::vector<char>> plausibleVectors() const;

  /// Same as !plausibleVectors().empty(), in O(k) without enumerating: the
  /// first component that is not '=' decides ('<' or '*' yes, '>' no), and
  /// all '=' falls back to the textual-order rule.
  bool hasPlausibleVector() const;
};

/// Dependence analysis result for one loop nest. compute() only records
/// dependences with a plausible vector (Dependence::hasPlausibleVector).
class DependenceInfo {
public:
  /// Analyzes the nest rooted at \p Root. Returns nullopt when dependences
  /// cannot be computed (non-affine subscripts/bounds, unknown calls).
  /// When \p WhyNot is non-null and the analysis is unavailable, it is
  /// filled with a located diagnostic explaining the first construct that
  /// defeated the analysis (e.g. "subscript `A[B[i]]` is non-affine:
  /// dependence analysis unavailable").
  static std::optional<DependenceInfo>
  compute(const cir::ForStmt &Root, support::Diag *WhyNot = nullptr);

  /// Whether the loop \p Root carries a dependence.
  enum class RootCarry {
    Unavailable, ///< compute(Root) would return nullopt
    Carried,     ///< some dependence of compute(Root) has mayBeCarriedBy(0)
    Independent, ///< none of them has
  };
  struct RootVerdict {
    RootCarry Carry = RootCarry::Unavailable;
    /// Independent only: in every array access, each subscript but the
    /// last has coefficient 0 in Root's variable and the last has 0 or 1.
    bool UnitStride = false;
  };
  /// compute()'s answer to one question, from the same walk and pair tests:
  /// it stops at the first dependence Root carries and builds no
  /// Dependence. The evaluator's SIMD gate asks it of every innermost loop.
  static RootVerdict carriedByRoot(const cir::ForStmt &Root);

  const std::vector<Dependence> &deps() const { return Deps; }

  /// Legality of permuting the perfect nest of Root with permutation
  /// \p Perm (Perm[i] = original index of the loop placed at position i).
  bool interchangeLegal(const std::vector<int> &Perm) const;

  /// Legality of rectangular tiling of the loops at depths
  /// [BandBegin, BandEnd] of the perfect nest (band must be fully
  /// permutable or dependences satisfied outside it).
  bool tilingLegal(size_t BandBegin, size_t BandEnd) const;

  /// Legality of unroll-and-jam of the loop at depth \p Level.
  bool unrollAndJamLegal(size_t Level) const;

  /// Builds the statement-level dependence graph among the top-level
  /// statements of \p Loop's body (indices into Loop->Body->Stmts).
  /// Edge[a] contains b when some instance of statement-group a must execute
  /// before some instance of statement-group b.
  std::vector<std::vector<int>> stmtGraph(const cir::ForStmt &Loop) const;

  /// Legality of distributing \p Loop's body statements into separate loops
  /// in textual order without reordering (conservative: no backward edge
  /// and no dependence cycle across distinct statements).
  bool distributionLegal(const cir::ForStmt &Loop) const;

  int leafStmtCount() const { return NumLeaves; }

  /// The leaf statement behind the index a Dependence's SrcStmt/DstStmt
  /// refers to (for located witnesses); null when out of range.
  const cir::Stmt *leafStmt(int I) const {
    return I >= 0 && I < static_cast<int>(LeafStmts.size())
               ? LeafStmts[static_cast<size_t>(I)]
               : nullptr;
  }

private:
  std::vector<Dependence> Deps;
  std::vector<const cir::Stmt *> LeafStmts;
  std::vector<const cir::ForStmt *> NestLoops; ///< the perfect nest of Root
  int NumLeaves = 0;

  friend struct DependenceBuilder;
};

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_DEPENDENCE_H
