//===- PathIndex.cpp - Hierarchical statement indexing --------------------===//

#include "src/cir/PathIndex.h"

#include "src/support/StringUtils.h"

#include <cstdlib>

namespace locus {
namespace cir {

Expected<std::vector<int>> parsePath(const std::string &Path) {
  if (Path.empty())
    return Expected<std::vector<int>>::error("empty hierarchical path");
  std::vector<int> Components;
  for (const std::string &Part : splitString(Path, '.')) {
    if (Part.empty())
      return Expected<std::vector<int>>::error("malformed path: " + Path);
    for (char C : Part)
      if (!std::isdigit(static_cast<unsigned char>(C)))
        return Expected<std::vector<int>>::error("malformed path: " + Path);
    Components.push_back(std::atoi(Part.c_str()));
  }
  return Components;
}

Expected<StmtLocation> resolvePath(Block &Region, const std::string &Path) {
  Expected<std::vector<int>> Components = parsePath(Path);
  if (!Components.ok())
    return Expected<StmtLocation>::error(Components.message());

  Block *Current = &Region;
  for (size_t Level = 0; Level < Components->size(); ++Level) {
    int Index = (*Components)[Level];
    if (Index < 0 || static_cast<size_t>(Index) >= Current->Stmts.size())
      return Expected<StmtLocation>::error(
          "path " + Path + " is out of range at level " +
          std::to_string(Level));
    Stmt *S = Current->Stmts[static_cast<size_t>(Index)].get();
    if (Level + 1 == Components->size())
      return StmtLocation{Current, static_cast<size_t>(Index)};
    if (auto *For = dyn_cast<ForStmt>(S)) {
      Current = For->Body.get();
    } else if (auto *B = dyn_cast<Block>(S)) {
      Current = B;
    } else {
      return Expected<StmtLocation>::error(
          "path " + Path + " descends through a non-compound statement");
    }
  }
  return Expected<StmtLocation>::error("unreachable: empty path");
}

Expected<ForStmt *> resolveLoopPath(Block &Region, const std::string &Path) {
  Expected<StmtLocation> Loc = resolvePath(Region, Path);
  if (!Loc.ok())
    return Expected<ForStmt *>::error(Loc.message());
  auto *For = dyn_cast<ForStmt>(Loc->get());
  if (!For)
    return Expected<ForStmt *>::error("path " + Path +
                                      " does not address a loop");
  return For;
}

namespace {

/// Collects the loops directly at this block level, looking through nested
/// plain (non-region) blocks but not into loop bodies.
void levelLoops(Block &B, std::vector<ForStmt *> &Out) {
  for (auto &S : B.Stmts) {
    if (auto *For = dyn_cast<ForStmt>(S.get()))
      Out.push_back(For);
    else if (auto *Sub = dyn_cast<Block>(S.get()))
      levelLoops(*Sub, Out);
  }
}

} // namespace

Expected<ForStmt *> resolveLoopPathLoopwise(Block &Region,
                                            const std::string &Path) {
  // Exact statement paths win when they address a loop.
  if (Expected<ForStmt *> Strict = resolveLoopPath(Region, Path); Strict.ok())
    return Strict;

  Expected<std::vector<int>> Components = parsePath(Path);
  if (!Components.ok())
    return Expected<ForStmt *>::error(Components.message());
  Block *Current = &Region;
  ForStmt *Loop = nullptr;
  for (int Index : *Components) {
    std::vector<ForStmt *> Loops;
    levelLoops(*Current, Loops);
    if (Index < 0 || static_cast<size_t>(Index) >= Loops.size())
      return Expected<ForStmt *>::error(
          "loop path " + Path + " is out of range (level has " +
          std::to_string(Loops.size()) + " loops)");
    Loop = Loops[static_cast<size_t>(Index)];
    Current = Loop->Body.get();
  }
  return Loop;
}

namespace {

/// Appends the loops under \p B to \p Out in preorder and returns whether
/// there were any. \p Outer says no loop encloses \p B; a loop is marked
/// inner when its own walk finds no loop. \p BlockT is Block or const Block.
template <typename BlockT, typename EntryT>
bool walkLoops(BlockT &B, const std::string &Prefix, bool Outer,
               std::vector<EntryT> &Out) {
  bool Found = false;
  for (size_t I = 0; I < B.Stmts.size(); ++I) {
    Stmt *S = B.Stmts[I].get();
    if (!isa<ForStmt>(S) && !isa<Block>(S) && !isa<IfStmt>(S))
      continue;
    std::string Path = Prefix.empty() ? std::to_string(I)
                                      : Prefix + "." + std::to_string(I);
    if (auto *For = dyn_cast<ForStmt>(S)) {
      size_t At = Out.size();
      Out.push_back(EntryT{Path, For, Outer, false});
      Out[At].Inner = !walkLoops<BlockT>(*For->Body, Path, false, Out);
      Found = true;
    } else if (auto *Sub = dyn_cast<Block>(S)) {
      Found |= walkLoops<BlockT>(*Sub, Path, Outer, Out);
    } else {
      // If bodies are not addressable through numeric paths in this scheme,
      // but loops inside them still count for inner/outer queries. They get
      // the if statement's path as an approximation.
      auto *If = cast<IfStmt>(S);
      Found |= walkLoops<BlockT>(*If->Then, Path, Outer, Out);
      if (If->Else)
        Found |= walkLoops<BlockT>(*If->Else, Path, Outer, Out);
    }
  }
  return Found;
}

} // namespace

std::vector<LoopEntry> listLoops(Block &Region) {
  std::vector<LoopEntry> Out;
  walkLoops(Region, "", true, Out);
  return Out;
}

std::vector<ConstLoopEntry> listLoops(const Block &Region) {
  std::vector<ConstLoopEntry> Out;
  walkLoops(Region, "", true, Out);
  return Out;
}

std::vector<LoopEntry> listInnerLoops(Block &Region) {
  std::vector<LoopEntry> Loops = listLoops(Region);
  std::erase_if(Loops, [](const LoopEntry &E) { return !E.Inner; });
  return Loops;
}

std::vector<LoopEntry> listOuterLoops(Block &Region) {
  std::vector<LoopEntry> Loops = listLoops(Region);
  std::erase_if(Loops, [](const LoopEntry &E) { return !E.Outer; });
  return Loops;
}

std::vector<ConstLoopEntry> listOuterLoops(const Block &Region) {
  std::vector<ConstLoopEntry> Loops = listLoops(Region);
  std::erase_if(Loops, [](const ConstLoopEntry &E) { return !E.Outer; });
  return Loops;
}

std::optional<StmtLocation> locateStmt(Block &Root, const Stmt *Target) {
  for (size_t I = 0; I < Root.Stmts.size(); ++I) {
    Stmt *S = Root.Stmts[I].get();
    if (S == Target)
      return StmtLocation{&Root, I};
    if (auto *For = dyn_cast<ForStmt>(S)) {
      if (auto Found = locateStmt(*For->Body, Target))
        return Found;
    } else if (auto *B = dyn_cast<Block>(S)) {
      if (auto Found = locateStmt(*B, Target))
        return Found;
    } else if (auto *If = dyn_cast<IfStmt>(S)) {
      if (auto Found = locateStmt(*If->Then, Target))
        return Found;
      if (If->Else)
        if (auto Found = locateStmt(*If->Else, Target))
          return Found;
    }
  }
  return std::nullopt;
}

} // namespace cir
} // namespace locus
