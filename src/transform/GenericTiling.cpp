//===- GenericTiling.cpp - Skewed (time) tiling ------------------------------===//

#include "src/transform/GenericTiling.h"

#include "src/analysis/Dependence.h"
#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"

#include <set>

namespace locus {
namespace transform {

using namespace cir;

TransformResult applyGenericTiling(Block &Region,
                                   const GenericTilingArgs &Args,
                                   const TransformContext &Ctx) {
  Expected<StmtLocation> Loc = resolvePath(Region, Args.LoopPath);
  if (!Loc.ok())
    return TransformResult::error(Loc.message());
  auto *Root = dyn_cast<ForStmt>(Loc->get());
  if (!Root)
    return TransformResult::error("generic tiling path does not address a loop");

  const auto &M = Args.Matrix;
  size_t K = M.size();
  if (K == 0)
    return TransformResult::error("generic tiling requires a matrix");
  for (const auto &Row : M)
    if (Row.size() != K)
      return TransformResult::error("generic tiling matrix must be square");

  std::vector<ForStmt *> Nest = perfectNest(*Root);
  if (K > Nest.size())
    return TransformResult::error(
        "matrix rank " + std::to_string(K) + " exceeds perfect nest depth " +
        std::to_string(Nest.size()));
  for (size_t R = 0; R < K; ++R)
    if (Nest[R]->Step != 1)
      return TransformResult::error("generic tiling requires unit-step loops");

  // Decode tile sizes and skew factors.
  std::vector<int64_t> Tile(K);
  std::vector<std::vector<int64_t>> Skew(K, std::vector<int64_t>(K, 0));
  for (size_t R = 0; R < K; ++R) {
    if (M[R][R] <= 0)
      return TransformResult::error("matrix diagonal must be positive");
    Tile[R] = M[R][R];
    for (size_t C = 0; C < K; ++C) {
      if (C == R)
        continue;
      if (C > R) {
        if (M[R][C] != 0)
          return TransformResult::error(
              "generic tiling matrix must be lower triangular");
        continue;
      }
      if (M[R][C] > 0 || (-M[R][C]) % M[R][R] != 0)
        return TransformResult::error(
            "off-diagonal entries must be non-positive multiples of the "
            "diagonal");
      Skew[R][C] = -M[R][C] / M[R][R];
    }
  }

  // Band bounds must not reference band induction variables (the skewed tile
  // space is enumerated rectangularly).
  std::set<std::string> BandVars;
  for (size_t R = 0; R < K; ++R)
    BandVars.insert(Nest[R]->Var);
  for (size_t R = 0; R < K; ++R) {
    std::set<std::string> BoundVars;
    collectVars(*Nest[R]->Init, BoundVars);
    collectVars(*Nest[R]->Bound, BoundVars);
    for (const std::string &V : BoundVars)
      if (BandVars.count(V))
        return TransformResult::error(
            "band loop bounds must be band-invariant for generic tiling");
  }

  // When dependences are computable and no skewing is requested, fall back
  // to the rectangular permutability check.
  bool AnySkew = false;
  for (size_t R = 0; R < K; ++R)
    for (size_t C = 0; C < K; ++C)
      if (Skew[R][C] != 0)
        AnySkew = true;
  std::optional<analysis::DependenceInfo> Deps =
      analysis::DependenceInfo::compute(*Root);
  if (Deps && !AnySkew && !Deps->tilingLegal(0, K - 1))
    return TransformResult::illegal("tiled band is not fully permutable");
  if (!Deps && Ctx.RequireDeps)
    return TransformResult::illegal(
        "dependences unavailable; refusing generic tiling");

  // Original bound expressions (exclusive) and lower bounds per band loop.
  std::vector<ExprPtr> Lower(K), Upper(K);
  for (size_t R = 0; R < K; ++R) {
    Lower[R] = Nest[R]->Init->clone();
    Upper[R] = exclusiveBound(*Nest[R]);
  }

  // Substitution of original induction variables by their skewed
  // reconstruction: v_r = vS_r - sum_c Skew[r][c] * subst(v_c).
  std::vector<std::string> IntraVar(K); // name used inside generated code
  std::vector<ExprPtr> Reconstruct(K);  // expression giving original v_r
  for (size_t R = 0; R < K; ++R) {
    bool Skewed = false;
    for (size_t C = 0; C < R; ++C)
      if (Skew[R][C] != 0)
        Skewed = true;
    if (!Skewed) {
      IntraVar[R] = Nest[R]->Var;
      Reconstruct[R] = makeVar(Nest[R]->Var);
      continue;
    }
    IntraVar[R] = freshName(Region, Nest[R]->Var + "s");
    ExprPtr Expr = makeVar(IntraVar[R]);
    for (size_t C = 0; C < R; ++C) {
      if (Skew[R][C] == 0)
        continue;
      Expr = makeBin(BinOp::Sub, std::move(Expr),
                     makeBin(BinOp::Mul, makeInt(Skew[R][C]),
                             Reconstruct[C]->clone()));
    }
    Reconstruct[R] = foldExpr(std::move(Expr));
  }

  // Skew offset expressions in terms of generated intra variables:
  // off_r = sum_c Skew[r][c] * Reconstruct[c].
  auto SkewOffset = [&](size_t R) -> ExprPtr {
    ExprPtr Off = makeInt(0);
    for (size_t C = 0; C < R; ++C) {
      if (Skew[R][C] == 0)
        continue;
      Off = makeBin(BinOp::Add, std::move(Off),
                    makeBin(BinOp::Mul, makeInt(Skew[R][C]),
                            Reconstruct[C]->clone()));
    }
    return foldExpr(std::move(Off));
  };
  // Constant-direction extreme of the skew offset over the whole space,
  // using the band lower/upper bounds (for tile-loop ranges).
  auto SkewExtreme = [&](size_t R, bool Max) -> ExprPtr {
    ExprPtr Off = makeInt(0);
    for (size_t C = 0; C < R; ++C) {
      if (Skew[R][C] == 0)
        continue;
      // Skew factors are non-negative, so the extreme follows the loop's.
      ExprPtr Extent =
          Max ? foldExpr(makeBin(BinOp::Sub, Upper[C]->clone(), makeInt(1)))
              : Lower[C]->clone();
      Off = makeBin(BinOp::Add, std::move(Off),
                    makeBin(BinOp::Mul, makeInt(Skew[R][C]),
                            std::move(Extent)));
    }
    return foldExpr(std::move(Off));
  };

  // Build the loop structure: K tile loops, K intra-tile loops, then the
  // untiled rest of the nest; every bound is exclusive.
  std::vector<Header> Headers;
  std::vector<std::string> TileVars(K);
  for (size_t R = 0; R < K; ++R) {
    TileVars[R] = freshName(Region, Nest[R]->Var + "t");
    ExprPtr Lo = foldExpr(
        makeBin(BinOp::Add, Lower[R]->clone(), SkewExtreme(R, /*Max=*/false)));
    ExprPtr Hi = foldExpr(
        makeBin(BinOp::Add, Upper[R]->clone(), SkewExtreme(R, /*Max=*/true)));
    Headers.push_back(Header{TileVars[R], std::move(Lo), BoundOp::Lt,
                             std::move(Hi), Tile[R]});
  }
  for (size_t R = 0; R < K; ++R) {
    ExprPtr Off = SkewOffset(R);
    ExprPtr Lo = foldExpr(makeMax(
        foldExpr(makeBin(BinOp::Add, Lower[R]->clone(), Off->clone())),
        makeVar(TileVars[R])));
    ExprPtr Hi = foldExpr(makeMin(
        foldExpr(makeBin(BinOp::Add, Upper[R]->clone(), Off->clone())),
        makeBin(BinOp::Add, makeVar(TileVars[R]), makeInt(Tile[R]))));
    Headers.push_back(
        Header{IntraVar[R], std::move(Lo), BoundOp::Lt, std::move(Hi), 1});
  }

  // Remaining (untiled) nest levels keep their headers, with band variables
  // rewritten to their reconstructions.
  for (size_t R = K; R < Nest.size(); ++R) {
    ExprPtr Init = Nest[R]->Init->clone();
    ExprPtr Bound = exclusiveBound(*Nest[R]);
    for (size_t C = 0; C < K; ++C) {
      if (IntraVar[C] == Nest[C]->Var)
        continue;
      Init = substituteVar(std::move(Init), Nest[C]->Var, *Reconstruct[C]);
      Bound = substituteVar(std::move(Bound), Nest[C]->Var, *Reconstruct[C]);
    }
    Headers.push_back(Header{Nest[R]->Var, foldExpr(std::move(Init)),
                             BoundOp::Lt, foldExpr(std::move(Bound)),
                             Nest[R]->Step});
  }

  // Innermost body with band variables reconstructed.
  std::unique_ptr<Block> Body = std::move(Nest.back()->Body);
  for (size_t C = 0; C < K; ++C) {
    if (IntraVar[C] == Nest[C]->Var)
      continue;
    substituteVarInStmt(*Body, Nest[C]->Var, *Reconstruct[C]);
  }
  forEachExpr(*Body, [](ExprPtr &E) { E = foldExpr(std::move(E)); });

  Loc->replace(buildChain(std::move(Headers), std::move(Body)));
  return TransformResult::success();
}

} // namespace transform
} // namespace locus
