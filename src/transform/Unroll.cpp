//===- Unroll.cpp - Loop unrolling and unroll-and-jam -----------------------===//

#include "src/transform/Unroll.h"

#include "src/analysis/Dependence.h"
#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"

namespace locus {
namespace transform {

using namespace cir;

namespace {

/// Clones \p Body substituting the induction variable by Var + Offset
/// (Offset = 0 keeps plain Var).
std::unique_ptr<Block> cloneWithOffset(const Block &Body,
                                       const std::string &Var,
                                       int64_t Offset) {
  auto Copy = std::unique_ptr<Block>(cast<Block>(Body.clone().release()));
  if (Offset != 0) {
    ExprPtr Repl = foldExpr(makeBin(BinOp::Add, makeVar(Var), makeInt(Offset)));
    substituteVarInStmt(*Copy, Var, *Repl);
  }
  return Copy;
}

/// Clones \p Body substituting the induction variable by a constant value.
std::unique_ptr<Block> cloneWithConst(const Block &Body,
                                      const std::string &Var, int64_t Value) {
  auto Copy = std::unique_ptr<Block>(cast<Block>(Body.clone().release()));
  IntLit Lit(Value);
  substituteVarInStmt(*Copy, Var, Lit);
  return Copy;
}

/// Fuses copies of a loop body back together where possible: when every copy
/// consists of a single loop with an identical header, the copies' bodies
/// are jammed recursively inside one loop. Otherwise the copies are simply
/// concatenated.
std::unique_ptr<Block> jamCopies(std::vector<std::unique_ptr<Block>> Copies) {
  assert(!Copies.empty());
  bool Jammable = true;
  for (const auto &C : Copies) {
    if (C->Stmts.size() != 1 || !isa<ForStmt>(C->Stmts.front().get())) {
      Jammable = false;
      break;
    }
  }
  if (Jammable) {
    const auto *First = cast<ForStmt>(Copies.front()->Stmts.front().get());
    for (const auto &C : Copies) {
      const auto *L = cast<ForStmt>(C->Stmts.front().get());
      if (L->Var != First->Var || L->Op != First->Op ||
          L->Step != First->Step || !exprEquals(*L->Init, *First->Init) ||
          !exprEquals(*L->Bound, *First->Bound)) {
        Jammable = false;
        break;
      }
    }
    if (Jammable) {
      std::vector<std::unique_ptr<Block>> Inner;
      Inner.reserve(Copies.size());
      for (auto &C : Copies) {
        auto *L = cast<ForStmt>(C->Stmts.front().get());
        Inner.push_back(std::move(L->Body));
      }
      auto *First2 = cast<ForStmt>(Copies.front()->Stmts.front().get());
      auto Fused = std::make_unique<ForStmt>(
          First2->Var, std::move(First2->Init), First2->Op,
          std::move(First2->Bound), First2->Step, jamCopies(std::move(Inner)));
      auto Result = std::make_unique<Block>();
      Result->Stmts.push_back(std::move(Fused));
      return Result;
    }
  }
  auto Result = std::make_unique<Block>();
  for (auto &C : Copies)
    for (auto &S : C->Stmts)
      Result->Stmts.push_back(std::move(S));
  return Result;
}

/// Shared unrolling engine. \p Jam selects unroll-and-jam body construction.
TransformResult unrollLoop(StmtLocation Loc, int64_t Factor, bool Jam) {
  auto *Loop = cast<ForStmt>(Loc.get());
  if (Factor < 2)
    return TransformResult::noop("unroll factor below 2");
  int64_t Step = Loop->Step;

  auto MakeCopies = [&](int64_t Count) {
    std::vector<std::unique_ptr<Block>> Copies;
    for (int64_t C = 0; C < Count; ++C)
      Copies.push_back(cloneWithOffset(*Loop->Body, Loop->Var, C * Step));
    return Copies;
  };
  auto BuildBody = [&](int64_t Count) -> std::unique_ptr<Block> {
    std::vector<std::unique_ptr<Block>> Copies = MakeCopies(Count);
    if (Jam)
      return jamCopies(std::move(Copies));
    auto Body = std::make_unique<Block>();
    for (auto &C : Copies)
      for (auto &S : C->Stmts)
        Body->Stmts.push_back(std::move(S));
    return Body;
  };

  if (std::optional<ConstLoop> L = constLoop(*Loop)) {
    if (L->Trips == 0)
      return TransformResult::noop("loop has zero iterations");
    // A full unroll is the remainder of a main loop that is never emitted.
    bool Full = L->Trips <= Factor && !Jam;
    int64_t MainTrips = Full ? 0 : (L->Trips / Factor) * Factor;
    auto Out = std::make_unique<Block>();
    if (!Full) {
      int64_t MainStep = 0, MainEnd = 0; // MainEnd is exclusive
      if (__builtin_mul_overflow(Factor, Step, &MainStep) ||
          __builtin_mul_overflow(MainTrips, Step, &MainEnd) ||
          __builtin_add_overflow(MainEnd, L->First, &MainEnd))
        return TransformResult::error("unrolled loop bounds overflow");
      auto Main = std::make_unique<ForStmt>(
          Loop->Var, Loop->Init->clone(), BoundOp::Lt, makeInt(MainEnd),
          MainStep, BuildBody(Factor));
      Main->Pragmas = Loop->Pragmas;
      Out->Stmts.push_back(std::move(Main));
    }
    // Remainder iterations fully unrolled with constant indices; iteration
    // C's value lies in [First, Limit), so only First + C * Step's
    // intermediate product needs the wider type.
    for (int64_t C = MainTrips; C < L->Trips; ++C) {
      auto Value =
          static_cast<int64_t>(L->First + static_cast<__int128>(C) * Step);
      auto Copy = cloneWithConst(*Loop->Body, Loop->Var, Value);
      for (auto &S : Copy->Stmts)
        Out->Stmts.push_back(std::move(S));
    }
    Loc.replace(std::move(Out));
    return TransformResult::success();
  }

  // Symbolic bounds: supported for unit-step loops.
  if (Step != 1)
    return TransformResult::error(
        "symbolic-bound unrolling requires a unit-step loop");
  ExprPtr Excl = exclusiveBound(*Loop);
  // Main loop: for (v = L; v < U - (F-1); v += F)
  ExprPtr MainBound = foldExpr(
      makeBin(BinOp::Sub, Excl->clone(), makeInt(Factor - 1)));
  auto Main = std::make_unique<ForStmt>(Loop->Var, Loop->Init->clone(),
                                        BoundOp::Lt, std::move(MainBound),
                                        Factor, BuildBody(Factor));
  Main->Pragmas = Loop->Pragmas;
  // Remainder loop: for (v = L + ((U - L) / F) * F; v < U; v++) body
  ExprPtr Span = makeBin(BinOp::Sub, Excl->clone(), Loop->Init->clone());
  ExprPtr RemStart = foldExpr(makeBin(
      BinOp::Add, Loop->Init->clone(),
      makeBin(BinOp::Mul, makeBin(BinOp::Div, std::move(Span), makeInt(Factor)),
              makeInt(Factor))));
  auto RemBody =
      std::unique_ptr<Block>(cast<Block>(Loop->Body->clone().release()));
  auto Rem = std::make_unique<ForStmt>(Loop->Var, std::move(RemStart),
                                       BoundOp::Lt, std::move(Excl), 1,
                                       std::move(RemBody));
  auto Out = std::make_unique<Block>();
  Out->Stmts.push_back(std::move(Main));
  Out->Stmts.push_back(std::move(Rem));
  Loc.replace(std::move(Out));
  return TransformResult::success();
}

} // namespace

TransformResult applyUnroll(Block &Region, const UnrollArgs &Args,
                            const TransformContext &Ctx) {
  (void)Ctx; // unrolling is unconditionally legal
  Expected<StmtLocation> Loc = resolvePath(Region, Args.LoopPath);
  if (!Loc.ok())
    return TransformResult::error(Loc.message());
  if (!isa<ForStmt>(Loc->get()))
    return TransformResult::error("unroll path does not address a loop");
  return unrollLoop(*Loc, Args.Factor, /*Jam=*/false);
}

TransformResult applyUnrollAndJam(Block &Region, const UnrollAndJamArgs &Args,
                                  const TransformContext &Ctx) {
  Expected<StmtLocation> RootLoc = resolvePath(Region, Args.LoopPath);
  if (!RootLoc.ok())
    return TransformResult::error(RootLoc.message());
  auto *Root = dyn_cast<ForStmt>(RootLoc->get());
  if (!Root)
    return TransformResult::error("unroll-and-jam path does not address a loop");

  std::vector<ForStmt *> Nest = perfectNest(*Root);
  size_t Depth = static_cast<size_t>(Args.Depth);
  if (Args.Depth < 1 || Depth > Nest.size())
    return TransformResult::error("unroll-and-jam depth out of range");

  std::optional<analysis::DependenceInfo> Deps =
      analysis::DependenceInfo::compute(*Root);
  if (!Deps) {
    if (Ctx.RequireDeps)
      return TransformResult::illegal(
          "dependences unavailable; refusing unroll-and-jam");
  } else if (!Deps->unrollAndJamLegal(Depth - 1)) {
    return TransformResult::illegal("unroll-and-jam violates a dependence");
  }

  // The jammed loop is addressed relative to the region; find its location.
  ForStmt *Target = Nest[Depth - 1];
  if (Target == Root)
    return unrollLoop(*RootLoc, Args.Factor, /*Jam=*/true);
  // Parent is the body of the loop above; the perfect nest guarantees it is
  // that body's only statement.
  ForStmt *Parent = Nest[Depth - 2];
  StmtLocation Loc{Parent->Body.get(), 0};
  assert(Loc.get() == Target && "perfect nest invariant violated");
  return unrollLoop(Loc, Args.Factor, /*Jam=*/true);
}

} // namespace transform
} // namespace locus
