//===- Interchange.cpp - Loop interchange ----------------------------------===//

#include "src/transform/Interchange.h"

#include "src/analysis/Dependence.h"
#include "src/cir/AstUtils.h"
#include "src/cir/PathIndex.h"

#include <algorithm>
#include <set>

namespace locus {
namespace transform {

using namespace cir;

TransformResult applyInterchange(Block &Region, const InterchangeArgs &Args,
                                 const TransformContext &Ctx) {
  Expected<ForStmt *> Root = resolveLoopPath(Region, Args.LoopPath);
  if (!Root.ok())
    return TransformResult::error(Root.message());

  std::vector<ForStmt *> Nest = perfectNest(**Root);
  const std::vector<int> &Order = Args.Order;
  if (Order.empty())
    return TransformResult::error("interchange requires an order argument");
  if (Order.size() > Nest.size())
    return TransformResult::error(
        "interchange order names " + std::to_string(Order.size()) +
        " loops but the perfect nest has depth " + std::to_string(Nest.size()));

  // Order must be a permutation of 0..k-1.
  std::vector<int> Sorted = Order;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I < Sorted.size(); ++I)
    if (Sorted[I] != static_cast<int>(I))
      return TransformResult::error("interchange order is not a permutation");

  if (std::is_sorted(Order.begin(), Order.end()))
    return TransformResult::noop("identity permutation");

  // Structural legality: the bounds of the loop placed at position p may only
  // reference induction variables of loops placed before p.
  for (size_t P = 0; P < Order.size(); ++P) {
    const ForStmt *Moved = Nest[static_cast<size_t>(Order[P])];
    std::set<std::string> BoundVars;
    collectVars(*Moved->Init, BoundVars);
    collectVars(*Moved->Bound, BoundVars);
    for (size_t Later = P; Later < Order.size(); ++Later) {
      const ForStmt *Inner = Nest[static_cast<size_t>(Order[Later])];
      if (Later > P && BoundVars.count(Inner->Var))
        return TransformResult::illegal(
            "loop " + Moved->Var + " has bounds depending on " + Inner->Var +
            " which would move inside it");
    }
    // Bounds must also not reference variables of loops that the permutation
    // pushes deeper than the moved loop (loops after the permuted band keep
    // their position, so only the band matters).
  }

  // Dependence legality.
  std::optional<analysis::DependenceInfo> Deps =
      analysis::DependenceInfo::compute(**Root);
  if (!Deps) {
    if (Ctx.RequireDeps)
      return TransformResult::illegal(
          "dependences unavailable; refusing interchange");
  } else if (!Deps->interchangeLegal(Order)) {
    return TransformResult::illegal("interchange violates a dependence");
  }

  // Permute the headers, leaving bodies in place.
  std::vector<Header> Headers;
  Headers.reserve(Order.size());
  for (size_t P = 0; P < Order.size(); ++P)
    Headers.push_back(Header::of(*Nest[static_cast<size_t>(Order[P])]));
  for (size_t P = 0; P < Order.size(); ++P) {
    ForStmt *Dst = Nest[P];
    Dst->Var = Headers[P].Var;
    Dst->Init = std::move(Headers[P].Init);
    Dst->Op = Headers[P].Op;
    Dst->Bound = std::move(Headers[P].Bound);
    Dst->Step = Headers[P].Step;
  }
  return TransformResult::success();
}

} // namespace transform
} // namespace locus
