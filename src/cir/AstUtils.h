//===- AstUtils.h - MiniC AST manipulation helpers -------------*- C++ -*-===//
///
/// \file
/// Shared AST utilities: perfect-nest discovery, variable substitution,
/// structural equality, constant folding of index/bound expressions, and
/// code-region hashing (used for the source-coherence check of Section II).
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_CIR_ASTUTILS_H
#define LOCUS_CIR_ASTUTILS_H

#include "src/cir/Ast.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace locus {
namespace cir {

/// Returns the chain of perfectly nested loops rooted at \p Root: Root, then
/// its only-statement child loop, and so on. Always contains at least Root.
std::vector<ForStmt *> perfectNest(ForStmt &Root);

/// Returns the full nesting depth of the loop nest rooted at \p Root: the
/// longest chain of loops reachable by descending through bodies (not
/// necessarily perfectly nested).
int loopNestDepth(const ForStmt &Root);

/// Returns true when the nest rooted at \p Root is perfectly nested: every
/// body down to the innermost loop contains exactly one statement, a loop.
bool isPerfectNest(const ForStmt &Root);

/// The one expression rewriter. Visits \p E in pre-order; \p Fn returns a
/// replacement for the node it is shown, or null to keep the node and visit
/// its subexpressions. A replacement is not visited again. Returns the
/// (possibly new) root.
ExprPtr rewriteExpr(ExprPtr E, const std::function<ExprPtr(const Expr &)> &Fn);

/// rewriteExpr() over every expression of the statement subtree (the ones
/// forEachExpr reaches).
void rewriteExprs(Stmt &S, const std::function<ExprPtr(const Expr &)> &Fn);

/// Replaces every VarRef to \p Name inside \p E with a clone of \p
/// Replacement, returning the (possibly new) expression.
ExprPtr substituteVar(ExprPtr E, const std::string &Name,
                      const Expr &Replacement);

/// Replaces VarRefs in all expressions of the statement subtree.
void substituteVarInStmt(Stmt &S, const std::string &Name,
                         const Expr &Replacement);

/// Structural expression equality.
bool exprEquals(const Expr &A, const Expr &B);

/// Structural statement equality: pragmas and region names are compared,
/// source locations are ignored. Blocks are compared modulo redundant
/// nesting — a block whose only statement is an unnamed, pragma-free block
/// is equivalent to that inner block (the unparser/parser pair introduces
/// such wrappers around region bodies).
bool stmtEquals(const Stmt &A, const Stmt &B);

/// Program equality used by the verifier's unparse→reparse round-trip check.
/// Globals and main-body statements are compared as one combined sequence
/// because reparsing printed output may reclassify leading body declarations
/// as globals.
bool programEquals(const Program &A, const Program &B);

/// Collects the names of all scalar variables referenced in \p E.
void collectVars(const Expr &E, std::set<std::string> &Out);

/// Collects names of arrays referenced in \p E.
void collectArrays(const Expr &E, std::set<std::string> &Out);

/// Returns true if expression \p E references variable \p Name.
bool referencesVar(const Expr &E, const std::string &Name);

/// Returns true if the statement subtree mentions \p Name: an expression
/// references it, a loop header writes it, or a declaration declares it.
bool stmtReferencesVar(const Stmt &S, const std::string &Name);

/// The one integer constant evaluator. Folds literals, names bound in \p Env
/// (the parser passes its const-int globals), unary - and !, + - * / %,
/// comparisons, && ||, and min/max. Arithmetic is overflow-checked: an
/// operation that overflows int64_t, INT64_MIN / -1, INT64_MIN % -1 and a
/// zero divisor all make \p E "not a constant" (nullopt).
std::optional<int64_t>
evalConstInt(const Expr &E,
             const std::map<std::string, int64_t> *Env = nullptr);

/// Trip count of `for (v = First; v < Limit; v += Step)` (0 when Limit <=
/// First); nullopt when Step <= 0 or the count exceeds INT64_MAX.
std::optional<int64_t> tripCount(int64_t First, int64_t Limit, int64_t Step);

/// Iteration facts of a loop whose bounds are integer constants.
struct ConstLoop {
  int64_t First = 0; ///< initial value of the induction variable
  int64_t Limit = 0; ///< exclusive upper limit: Bound, or Bound + 1 for <=
  int64_t Step = 1;  ///< positive step
  int64_t Trips = 0; ///< iteration count; 0 for an empty loop
};

/// The constant iteration facts of \p Loop; nullopt when a bound is not an
/// integer constant, the step is not positive, or Limit or Trips would
/// overflow int64_t.
std::optional<ConstLoop> constLoop(const ForStmt &Loop);

/// Exclusive upper bound expression of a loop (Bound, or Bound + 1 for <=).
ExprPtr exclusiveBound(const ForStmt &Loop);

/// Folds constant subexpressions and algebraic identities (x+0, x*1, 1*x,
/// min/max of constants). Transformation-generated bounds go through this so
/// emitted code stays readable.
ExprPtr foldExpr(ExprPtr E);

/// Visits \p E and its subexpressions in pre-order: array subscripts,
/// unary and binary operands, call arguments. When \p Fn returns false for
/// an expression, its subexpressions are skipped.
void forEachSubExpr(const Expr &E,
                    const std::function<bool(const Expr &)> &Fn);

/// Visits the top-level expression of every statement in a subtree (loop
/// init and bound, if condition, assignment sides, declaration initializer,
/// call statement), in source order; subexpressions are not visited.
void forEachExpr(Stmt &S, const std::function<void(ExprPtr &)> &Fn);
void forEachExpr(const Stmt &S, const std::function<void(const ExprPtr &)> &Fn);

/// Visits every statement in the subtree, preorder.
void forEachStmt(Stmt &S, const std::function<void(Stmt &)> &Fn);
void forEachStmt(const Stmt &S, const std::function<void(const Stmt &)> &Fn);

/// Stable hash of a code region's unparsed text; Section II uses this key to
/// warn when the source drifted under a saved optimization program.
uint64_t hashRegion(const Block &Region);

} // namespace cir
} // namespace locus

#endif // LOCUS_CIR_ASTUTILS_H
