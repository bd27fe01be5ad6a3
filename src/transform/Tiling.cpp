//===- Tiling.cpp - Rectangular loop tiling ---------------------------------===//

#include "src/transform/Tiling.h"

#include "src/analysis/Dependence.h"
#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"

#include <set>

namespace locus {
namespace transform {

using namespace cir;

namespace {

/// Intra-tile upper bound: min(OrigBound, TileVar + Factor [- 1]).
ExprPtr clampedBound(const ForStmt &Orig, const std::string &TileVar,
                     int64_t Factor) {
  int64_t Extent = Orig.Op == BoundOp::Lt ? Factor : Factor - 1;
  ExprPtr TileEnd =
      makeBin(BinOp::Add, makeVar(TileVar), makeInt(Extent * Orig.Step));
  return foldExpr(makeMin(Orig.Bound->clone(), std::move(TileEnd)));
}

/// Checks the band's bounds do not reference intra-band induction variables
/// (rectangular band requirement).
bool bandIsRectangular(const std::vector<ForStmt *> &Nest, size_t K,
                       std::string &Offender) {
  for (size_t I = 0; I < K; ++I) {
    std::set<std::string> BoundVars;
    collectVars(*Nest[I]->Init, BoundVars);
    collectVars(*Nest[I]->Bound, BoundVars);
    for (size_t Outer = 0; Outer < I; ++Outer)
      if (BoundVars.count(Nest[Outer]->Var)) {
        Offender = Nest[I]->Var;
        return false;
      }
  }
  return true;
}

TransformResult applyBandTiling(Block &Region, StmtLocation Loc,
                                const TilingArgs &Args,
                                const TransformContext &Ctx) {
  auto *Root = cast<ForStmt>(Loc.get());
  std::vector<ForStmt *> Nest = perfectNest(*Root);
  size_t K = Args.Factors.size();
  if (K == 0)
    return TransformResult::error("tiling requires at least one factor");
  if (K > Nest.size())
    return TransformResult::error(
        "tiling factor list names " + std::to_string(K) +
        " loops but the perfect nest has depth " + std::to_string(Nest.size()));
  for (int64_t F : Args.Factors)
    if (F < 1)
      return TransformResult::error("tile factors must be positive");

  std::string Offender;
  if (!bandIsRectangular(Nest, K, Offender))
    return TransformResult::error("loop " + Offender +
                                  " has band-dependent bounds; "
                                  "non-rectangular tiling is unsupported");

  // Legality: the tiled band must be fully permutable (or all dependences
  // satisfied outside it).
  std::optional<analysis::DependenceInfo> Deps =
      analysis::DependenceInfo::compute(*Root);
  if (!Deps) {
    if (Ctx.RequireDeps)
      return TransformResult::illegal("dependences unavailable; refusing tiling");
  } else if (!Deps->tilingLegal(0, K - 1)) {
    return TransformResult::illegal("tiled band is not fully permutable");
  }

  // Assemble headers: tile loops for every factor > 1, then intra-tile
  // loops for all K band members.
  std::vector<Header> Headers;
  std::vector<std::string> TileVars(K);
  for (size_t I = 0; I < K; ++I) {
    if (Args.Factors[I] == 1)
      continue;
    ForStmt *L = Nest[I];
    TileVars[I] = freshName(Region, L->Var + "t");
    Headers.push_back(Header{TileVars[I], L->Init->clone(), L->Op,
                             L->Bound->clone(),
                             Args.Factors[I] * L->Step});
    // Declare the tile variable so downstream passes see it.
  }
  for (size_t I = 0; I < K; ++I) {
    ForStmt *L = Nest[I];
    if (Args.Factors[I] == 1) {
      Headers.push_back(Header::of(*L));
      continue;
    }
    Headers.push_back(Header{L->Var, makeVar(TileVars[I]), L->Op,
                             clampedBound(*L, TileVars[I], Args.Factors[I]),
                             L->Step});
  }
  if (Headers.size() == K)
    return TransformResult::noop("all tile factors are 1");

  // Headers for the untouched remainder of the nest below the band.
  for (size_t I = K; I < Nest.size(); ++I) {
    ForStmt *L = Nest[I];
    Headers.push_back(
        Header{L->Var, std::move(L->Init), L->Op, std::move(L->Bound), L->Step});
  }

  std::unique_ptr<Block> InnerBody = std::move(Nest.back()->Body);
  Loc.replace(buildChain(std::move(Headers), std::move(InnerBody)));
  return TransformResult::success();
}

TransformResult applySingleLoopTiling(Block &Region, StmtLocation Loc,
                                      const TilingArgs &Args,
                                      const TransformContext &Ctx) {
  auto *Root = cast<ForStmt>(Loc.get());
  std::vector<ForStmt *> Nest = perfectNest(*Root);
  if (Args.Factors.size() != 1)
    return TransformResult::error(
        "single-loop tiling takes exactly one factor");
  int64_t Factor = Args.Factors[0];
  if (Factor < 2)
    return TransformResult::noop("tile factor below 2");
  size_t Depth = static_cast<size_t>(Args.SingleLoopDepth);
  if (Depth < 1 || Depth > Nest.size())
    return TransformResult::error(
        "loop depth " + std::to_string(Args.SingleLoopDepth) +
        " outside nest of depth " + std::to_string(Nest.size()));
  ForStmt *Target = Nest[Depth - 1];

  // Structural: the target loop's bounds must be hoistable to the outermost
  // position, so they may not reference enclosing band variables.
  std::set<std::string> BoundVars;
  collectVars(*Target->Init, BoundVars);
  collectVars(*Target->Bound, BoundVars);
  for (size_t I = 0; I + 1 < Depth; ++I)
    if (BoundVars.count(Nest[I]->Var))
      return TransformResult::error(
          "loop " + Target->Var +
          " has outer-variable-dependent bounds; cannot hoist its tile loop");

  // Legality: hoisting the tile loop over loops 0..Depth-1 requires that
  // band to be permutable.
  std::optional<analysis::DependenceInfo> Deps =
      analysis::DependenceInfo::compute(*Root);
  if (!Deps) {
    if (Ctx.RequireDeps)
      return TransformResult::illegal("dependences unavailable; refusing tiling");
  } else if (!Deps->tilingLegal(0, Depth - 1)) {
    return TransformResult::illegal(
        "band above the tiled loop is not permutable");
  }

  std::string TileVar = freshName(Region, Target->Var + "t");
  std::vector<Header> Headers;
  Headers.push_back(Header{TileVar, Target->Init->clone(), Target->Op,
                           Target->Bound->clone(), Factor * Target->Step});
  for (size_t I = 0; I < Nest.size(); ++I) {
    ForStmt *L = Nest[I];
    if (I == Depth - 1) {
      Headers.push_back(Header{L->Var, makeVar(TileVar), L->Op,
                               clampedBound(*L, TileVar, Factor), L->Step});
    } else {
      Headers.push_back(Header{L->Var, std::move(L->Init), L->Op,
                               std::move(L->Bound), L->Step});
    }
  }
  std::unique_ptr<Block> InnerBody = std::move(Nest.back()->Body);
  Loc.replace(buildChain(std::move(Headers), std::move(InnerBody)));
  return TransformResult::success();
}

} // namespace

TransformResult applyTiling(Block &Region, const TilingArgs &Args,
                            const TransformContext &Ctx) {
  Expected<StmtLocation> Loc = resolvePath(Region, Args.LoopPath);
  if (!Loc.ok())
    return TransformResult::error(Loc.message());
  auto *Root = dyn_cast<ForStmt>(Loc->get());
  if (!Root)
    return TransformResult::error("tiling path does not address a loop");

  if (Args.SingleLoopDepth >= 1)
    return applySingleLoopTiling(Region, *Loc, Args, Ctx);
  return applyBandTiling(Region, *Loc, Args, Ctx);
}

} // namespace transform
} // namespace locus
