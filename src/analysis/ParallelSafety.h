//===- ParallelSafety.h - OpenMP race detection & classification -*- C++ -*-===//
///
/// \file
/// Static parallel-safety analysis for `omp parallel for` loops. For the
/// parallelized dimension it proves (or refutes) the absence of loop-carried
/// dependences using the dependence analyzer, and classifies every scalar
/// and array referenced in the loop body into the OpenMP data-sharing
/// classes (private, firstprivate, shared read-only, shared, reduction) or
/// `racy` when two iterations may touch the same location with a write.
///
/// The verdict is three-valued: Safe (proven race-free), Racy (a concrete
/// witness exists), Unknown (dependences unavailable — never silently
/// safe). Conservative `*` direction entries count as carried.
///
/// Consumers:
///  - transform::applyOmpFor rejects provably-racy parallelization (the
///    witness travels in TransformResult::Message), so a racy point of a
///    search fails as TransformIllegal before it is simulated;
///  - the simulator's OpenMP schedule model refuses to model speedup for
///    loops it cannot prove safe (unless trusted);
///  - the native evaluator emits data-sharing clauses for proven loops;
///  - locus_cli --race-check / --lint render the report for humans.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_PARALLELSAFETY_H
#define LOCUS_ANALYSIS_PARALLELSAFETY_H

#include "src/analysis/Dependence.h"
#include "src/cir/Ast.h"
#include "src/support/Diag.h"

#include <optional>
#include <string>
#include <vector>

namespace locus {
namespace analysis {

/// OpenMP data-sharing classification of one variable.
enum class VarClass {
  Private,        ///< written before read in every iteration (or block-local)
  FirstPrivate,   ///< read-only scalar capturing its pre-loop value
  SharedReadOnly, ///< array only ever read inside the loop
  Shared,         ///< written, but no dependence carried by the parallel dim
  Reduction,      ///< scalar updated only through `x = x op e` chains
  Racy            ///< two iterations may conflict on it
};

/// Reduction operators recognized in `x = x op e` / `x op= e` chains.
enum class RedOp { Add, Mul, Min, Max };

const char *varClassName(VarClass C);
const char *redOpName(RedOp O);

/// A concrete race witness: the dependence that two iterations of the
/// parallel loop may both execute, with its endpoints' source locations.
struct RaceWitness {
  std::string Var;
  DepKind Kind = DepKind::Flow;
  bool IsScalar = false;
  /// Direction vector over the common loops, rendered "(<,=,*)"; empty for
  /// purely syntactic scalar witnesses.
  std::string Dirs;
  support::SrcLoc SrcLoc;
  support::SrcLoc DstLoc;
  /// Extra prose when no dependence record backs the witness (syntactic
  /// scalar races).
  std::string Note;

  std::string render() const;
};

/// Overall verdict for parallelizing one loop.
enum class ParallelVerdict { Safe, Racy, Unknown };

/// Classification of one variable referenced in the loop body.
struct VarInfo {
  std::string Name;
  bool IsArray = false;
  VarClass Class = VarClass::Shared;
  std::optional<RedOp> Reduction;
  /// True when the variable is declared inside the loop body (per-iteration
  /// storage; needs no data-sharing clause).
  bool DeclaredInLoop = false;
  /// One-line rationale for the classification.
  std::string Why;
};

/// The full analysis result for one candidate `omp parallel for` loop.
struct ParallelSafetyReport {
  ParallelVerdict Verdict = ParallelVerdict::Unknown;
  std::string LoopVar;
  support::SrcLoc LoopLoc;
  /// When Verdict is Unknown: why dependence analysis was unavailable.
  std::string WhyUnknown;
  /// Classification table, one entry per referenced variable.
  std::vector<VarInfo> Vars;
  /// Witnesses for every racy variable (at least one when Verdict is Racy).
  std::vector<RaceWitness> Witnesses;

  /// One-line summary ("racy: loop-carried flow dependence on A ...").
  std::string summary() const;
  /// OpenMP data-sharing clauses for a proven-safe loop, e.g.
  /// "private(j,k) firstprivate(alpha) reduction(+:s)"; empty when nothing
  /// needs a clause or the loop is not proven safe.
  std::string clauses() const;
  /// Reports the verdict and witnesses as located diagnostics.
  void toDiags(support::DiagEngine &Diags, const std::string &Region) const;
};

/// True when pragma text \p Text (as stored on cir::Stmt::Pragmas, without
/// the leading "#pragma") requests OpenMP worksharing for the loop.
bool isOmpParallelForPragma(const std::string &Text);

/// True when \p For carries an `omp parallel for` pragma.
bool hasOmpParallelFor(const cir::ForStmt &For);

/// Analyzes \p For as if it were parallelized over its own dimension.
/// Works on any loop; the pragma need not be present.
ParallelSafetyReport analyzeParallelLoop(const cir::ForStmt &For);

/// Rewrites every `omp parallel for` pragma in \p P whose loop is proven
/// safe to carry the data-sharing clauses of its classification (idempotent;
/// existing clauses are preserved). Returns the number of annotated loops.
/// Used by the native evaluator so emitted C is correct under -fopenmp.
int annotateOmpClauses(cir::Program &P);

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_PARALLELSAFETY_H
