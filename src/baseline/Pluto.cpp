//===- Pluto.cpp - Fixed-heuristic restructurer baseline -----------------------===//

#include "src/baseline/Pluto.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"
#include "src/transform/AltdescPragmas.h"
#include "src/transform/GenericTiling.h"
#include "src/transform/Interchange.h"
#include "src/transform/Tiling.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace locus {
namespace baseline {

using namespace cir;
using namespace transform;

namespace {

/// Attaches ivdep/vector pragmas to every innermost loop.
void prevectorize(Block &Region, TransformContext &Ctx) {
  for (const LoopEntry &E : listInnerLoops(Region)) {
    PragmaArgs P;
    P.LoopPath = E.Path;
    P.Text = "ivdep";
    applyPragma(Region, P, Ctx);
    P.Text = "vector always";
    applyPragma(Region, P, Ctx);
  }
}

/// Model-based loop ordering, as a polyhedral scheduler would choose it:
/// among the legal permutations of the perfect nest, pick the one whose
/// innermost loop maximizes unit-stride / invariant array accesses.
void orderForLocality(Block &Region, const LoopEntry &Outer,
                      const analysis::DependenceInfo &Deps,
                      TransformContext &Ctx, std::ostringstream &Summary) {
  std::vector<ForStmt *> Nest = perfectNest(*Outer.Loop);
  size_t K = Nest.size();
  if (K < 2 || K > 5)
    return;

  auto ScoreInnermost = [&](const std::string &Var) {
    double Score = 0;
    forEachStmt(*Nest.back()->Body, [&](Stmt &S) {
      forEachExpr(S, [&](ExprPtr &E) {
        forEachSubExpr(*E, [&](const Expr &Sub) {
          const auto *A = dyn_cast<ArrayRef>(&Sub);
          if (!A)
            return true;
          bool UsesVar = false;
          for (size_t I = 0; I < A->Indices.size(); ++I) {
            std::optional<analysis::AffineExpr> Aff =
                analysis::toAffine(*A->Indices[I]);
            int64_t Coeff = Aff ? Aff->coeff(Var) : 0;
            if (Coeff != 0)
              UsesVar = true;
            if (I + 1 == A->Indices.size() && Coeff == 1)
              Score += 2; // unit stride
            else if (Coeff != 0)
              Score -= 1; // strided
          }
          if (!UsesVar)
            Score += 1; // register-resident across the loop
          return true;
        });
      });
    });
    return Score;
  };

  std::vector<int> Best(K);
  std::iota(Best.begin(), Best.end(), 0);
  double BestScore = ScoreInnermost(Nest[K - 1]->Var);
  std::vector<int> Perm = Best;
  while (std::next_permutation(Perm.begin(), Perm.end())) {
    if (!Deps.interchangeLegal(Perm))
      continue;
    double Score = ScoreInnermost(Nest[static_cast<size_t>(Perm[K - 1])]->Var);
    if (Score > BestScore) {
      BestScore = Score;
      Best = Perm;
    }
  }
  bool Identity = std::is_sorted(Best.begin(), Best.end());
  if (Identity)
    return;
  InterchangeArgs Args;
  Args.LoopPath = Outer.Path;
  Args.Order = Best;
  if (applyInterchange(Region, Args, Ctx).succeeded())
    Summary << "interchange ";
}

/// True when loop 0 of the nest carries no dependence (safe to parallelize).
bool outerParallelizable(const analysis::DependenceInfo &Deps) {
  for (const analysis::Dependence &D : Deps.deps())
    if (D.mayBeCarriedBy(0))
      return false;
  return true;
}

struct Candidate {
  std::unique_ptr<cir::Program> Program;
  std::string Summary;
  bool NeedsValidation = false;
};

/// Builds the rectangular-tiling candidate; null when inapplicable.
std::unique_ptr<Candidate> rectCandidate(const cir::Program &Baseline,
                                         const std::string &RegionName,
                                         const PlutoOptions &Opts) {
  auto Cand = std::make_unique<Candidate>();
  Cand->Program = Baseline.clone();
  TransformContext Ctx;
  Ctx.Prog = Cand->Program.get();
  Ctx.RequireDeps = true; // Pluto is polyhedral-only
  std::vector<Block *> Regions = Cand->Program->findRegions(RegionName);
  if (Regions.empty())
    return nullptr;
  std::ostringstream Summary;
  bool DidAnything = false;

  for (Block *Region : Regions) {
    std::vector<LoopEntry> Outer = listOuterLoops(*Region);
    if (Outer.empty())
      return nullptr;
    ForStmt *Root = Outer[0].Loop;
    std::optional<analysis::DependenceInfo> Deps =
        analysis::DependenceInfo::compute(*Root);
    if (!Deps)
      return nullptr; // outside the polyhedral model

    orderForLocality(*Region, Outer[0], *Deps, Ctx, Summary);
    Root = listOuterLoops(*Region)[0].Loop;
    Deps = analysis::DependenceInfo::compute(*Root);
    if (!Deps)
      return nullptr;

    std::vector<ForStmt *> Nest = perfectNest(*Root);
    size_t Depth = Nest.size();
    bool Tiled = false;
    if (Depth >= 2 && Deps->tilingLegal(0, Depth - 1)) {
      TilingArgs T;
      T.LoopPath = Outer[0].Path;
      T.Factors.assign(Depth, Opts.TileSize);
      if (applyTiling(*Region, T, Ctx).succeeded()) {
        Tiled = true;
        DidAnything = true;
        Summary << "tile" << Depth << "x" << Opts.TileSize << " ";
        if (Opts.L2Tile) {
          TilingArgs T2;
          // Intra-tile loops start right below the tile band.
          std::string Path = Outer[0].Path;
          for (size_t I = 0; I < Depth; ++I)
            Path += ".0";
          T2.LoopPath = Path;
          T2.Factors.assign(Depth, std::max(2, Opts.TileSize / 4));
          if (applyTiling(*Region, T2, Ctx).succeeded())
            Summary << "l2tile ";
        }
      }
    }

    if (Opts.Parallel && outerParallelizable(*Deps)) {
      OmpForArgs Omp;
      Omp.LoopPath = Outer[0].Path;
      if (applyOmpFor(*Region, Omp, Ctx).succeeded()) {
        DidAnything = true;
        Summary << "parallel ";
      }
    }
    if (Opts.Prevector) {
      // Prevectorization alone is not a restructuring: without tiling or
      // parallelization this candidate yields to the skewed-tiling attempt.
      prevectorize(*Region, Ctx);
      Summary << "prevector ";
    }
    (void)Tiled;
  }
  if (!DidAnything)
    return nullptr;
  Cand->Summary = Summary.str();
  return Cand;
}

/// Builds the skewed-tiling candidate for stencil-shaped nests (depth 2-3,
/// dependences not affinely analyzable due to modulo time buffers). Needs
/// semantic validation.
std::unique_ptr<Candidate> skewCandidate(const cir::Program &Baseline,
                                         const std::string &RegionName,
                                         const PlutoOptions &Opts) {
  auto Cand = std::make_unique<Candidate>();
  Cand->Program = Baseline.clone();
  Cand->NeedsValidation = true;
  TransformContext Ctx;
  Ctx.Prog = Cand->Program.get();
  std::vector<Block *> Regions = Cand->Program->findRegions(RegionName);
  if (Regions.empty())
    return nullptr;
  for (Block *Region : Regions) {
    std::vector<LoopEntry> Outer = listOuterLoops(*Region);
    if (Outer.empty())
      return nullptr;
    ForStmt *Root = Outer[0].Loop;
    size_t Depth = perfectNest(*Root).size();
    if (Depth < 2 || Depth > 3)
      return nullptr;
    GenericTilingArgs G;
    G.LoopPath = Outer[0].Path;
    int64_t S = Opts.TileSize;
    if (Depth == 2)
      G.Matrix = {{S, 0}, {-S, S}};
    else
      G.Matrix = {{S, 0, 0}, {-S, S, 0}, {-S, 0, S}};
    if (!applyGenericTiling(*Region, G, Ctx).succeeded())
      return nullptr;
    if (Opts.Prevector)
      prevectorize(*Region, Ctx);
  }
  Cand->Summary = "skewed-tile" + std::to_string(Opts.TileSize) + " prevector";
  return Cand;
}

} // namespace

PlutoOutcome runPluto(const cir::Program &Baseline,
                      const std::string &RegionName, const PlutoOptions &Opts,
                      const ValidateFn &Validate) {
  PlutoOutcome Out;

  if (auto Cand = rectCandidate(Baseline, RegionName, Opts)) {
    if (!Cand->NeedsValidation || (Validate && Validate(*Cand->Program))) {
      Out.Transformed = true;
      Out.Program = std::move(Cand->Program);
      Out.Summary = Cand->Summary;
      return Out;
    }
  }
  if (Opts.TrySkewedTiling) {
    if (auto Cand = skewCandidate(Baseline, RegionName, Opts)) {
      if (Validate && Validate(*Cand->Program)) {
        Out.Transformed = true;
        Out.Program = std::move(Cand->Program);
        Out.Summary = Cand->Summary;
        return Out;
      }
    }
  }
  Out.Transformed = false;
  Out.Program = Baseline.clone();
  Out.Summary = "baseline (outside the polyhedral model or validation failed)";
  return Out;
}

std::string tunedDgemmSource(int M, int N, int K, int Block) {
  std::ostringstream Out;
  Out << "#define M " << M << "\n#define N " << N << "\n#define K " << K
      << "\n#define BS " << Block << "\n";
  Out << R"(
double A[M][K];
double B[K][N];
double C[M][N];
double alpha;
double beta;

int main()
{
  int it, kt, jt, i, j, k;
#pragma omp parallel for
  for (it = 0; it < M; it += BS)
    for (kt = 0; kt < K; kt += BS)
      for (jt = 0; jt < N; jt += BS)
        for (i = it; i < min(M, it + BS); i++)
          for (k = kt; k < min(K, kt + BS); k++) {
            double a = alpha * A[i][k];
#pragma ivdep
#pragma vector always
            for (j = jt; j < min(N, jt + BS); j++)
              C[i][j] = beta * C[i][j] + a * B[k][j];
          }
  return 0;
}
)";
  return Out.str();
}

} // namespace baseline
} // namespace locus
