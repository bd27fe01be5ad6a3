//===- PathIndex.h - Hierarchical statement indexing -----------*- C++ -*-===//
///
/// \file
/// Implements the paper's hierarchical indexing (Section III): a path such as
/// "0.0.1" names a statement or loop inside a code region. Each number is the
/// position at its level; descending a level means entering a loop body or a
/// compound statement. "0.0.0" on the matmul region of Fig. 3 names the
/// innermost k loop.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_CIR_PATHINDEX_H
#define LOCUS_CIR_PATHINDEX_H

#include "src/cir/Ast.h"
#include "src/support/Error.h"

#include <string>
#include <vector>

namespace locus {
namespace cir {

/// The location of a statement: the block that owns it and its index, so
/// callers can replace the statement in place.
struct StmtLocation {
  Block *Parent = nullptr;
  size_t Index = 0;

  Stmt *get() const { return Parent->Stmts[Index].get(); }

  /// Replaces the addressed statement, returning the old one.
  StmtPtr replace(StmtPtr New) const {
    StmtPtr Old = std::move(Parent->Stmts[Index]);
    Parent->Stmts[Index] = std::move(New);
    return Old;
  }
};

/// Parses "a.b.c" into numeric components; errors on malformed paths.
Expected<std::vector<int>> parsePath(const std::string &Path);

/// Resolves \p Path inside \p Region. The final component addresses a
/// statement in its level's statement list; intermediate components must
/// address loops or compound blocks to descend through.
Expected<StmtLocation> resolvePath(Block &Region, const std::string &Path);

/// Like resolvePath but requires the result to be a ForStmt.
Expected<ForStmt *> resolveLoopPath(Block &Region, const std::string &Path);

/// Loop-wise interpretation of a path: each component indexes only the
/// loops at its nesting level, skipping interleaved plain statements (such
/// as LICM-hoisted definitions). "0.0.0.0" then names the 4th-level loop of
/// the nest even after statements were hoisted between the loops. Used by
/// the pragma modules whose targets are always loops.
Expected<ForStmt *> resolveLoopPathLoopwise(Block &Region,
                                            const std::string &Path);

/// A discovered loop with its hierarchical path string. \p ForT is ForStmt
/// or const ForStmt.
template <typename ForT> struct BasicLoopEntry {
  std::string Path;
  ForT *Loop = nullptr;
  bool Outer = false; ///< no other loop of the region contains it
  bool Inner = false; ///< it contains no other loop
};
using LoopEntry = BasicLoopEntry<ForStmt>;
using ConstLoopEntry = BasicLoopEntry<const ForStmt>;

/// The one loop lister. Lists every loop in the region with its path, in
/// preorder, descending through blocks, loop bodies and both if branches;
/// one walk marks each loop Outer and Inner.
std::vector<LoopEntry> listLoops(Block &Region);
std::vector<ConstLoopEntry> listLoops(const Block &Region);

/// The listLoops() entries marked Inner (loops containing no other loop).
std::vector<LoopEntry> listInnerLoops(Block &Region);

/// The listLoops() entries marked Outer (loops not contained in another).
std::vector<LoopEntry> listOuterLoops(Block &Region);
std::vector<ConstLoopEntry> listOuterLoops(const Block &Region);

/// Finds the owning block and index of \p Target anywhere under \p Root
/// (searching loop bodies and if branches). Returns nullopt when absent.
std::optional<StmtLocation> locateStmt(Block &Root, const Stmt *Target);

} // namespace cir
} // namespace locus

#endif // LOCUS_CIR_PATHINDEX_H
