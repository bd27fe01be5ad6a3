//===- Transform.cpp - Transformation module shared helpers ----------------===//

#include "src/transform/Transform.h"

#include "src/cir/AstUtils.h"

#include <cassert>
#include <set>

namespace locus {
namespace transform {

std::string freshName(const cir::Block &Scope, const std::string &Base) {
  // Loop variables and declarations, then every name an expression reads;
  // forEachExpr already visits the whole subtree once.
  std::set<std::string> Used;
  cir::forEachStmt(Scope, [&](const cir::Stmt &S) {
    if (auto *For = cir::dyn_cast<cir::ForStmt>(&S))
      Used.insert(For->Var);
    if (auto *Decl = cir::dyn_cast<cir::DeclStmt>(&S))
      Used.insert(Decl->Name);
  });
  cir::forEachExpr(Scope, [&](const cir::ExprPtr &E) {
    cir::collectVars(*E, Used);
    cir::collectArrays(*E, Used);
  });
  if (!Used.count(Base))
    return Base;
  for (int Suffix = 2;; ++Suffix) {
    std::string Candidate = Base + "_" + std::to_string(Suffix);
    if (!Used.count(Candidate))
      return Candidate;
  }
}

Header Header::of(const cir::ForStmt &L) {
  return Header{L.Var, L.Init->clone(), L.Op, L.Bound->clone(), L.Step};
}

cir::StmtPtr buildChain(std::vector<Header> Headers,
                        std::unique_ptr<cir::Block> Body) {
  assert(!Headers.empty() && "cannot build an empty chain");
  for (size_t I = Headers.size(); I-- > 0;) {
    Header &H = Headers[I];
    auto Loop = std::make_unique<cir::ForStmt>(H.Var, std::move(H.Init), H.Op,
                                               std::move(H.Bound), H.Step,
                                               std::move(Body));
    Body = std::make_unique<cir::Block>();
    Body->Stmts.push_back(std::move(Loop));
  }
  return std::move(Body->Stmts.front());
}

std::map<std::string, cir::ElemType> collectDeclTypes(const cir::Program &P) {
  std::map<std::string, cir::ElemType> Types;
  for (const auto &G : P.Globals)
    Types[G->Name] = G->Elem;
  cir::forEachStmt(*P.Body, [&](const cir::Stmt &S) {
    if (auto *D = cir::dyn_cast<cir::DeclStmt>(&S))
      Types[D->Name] = D->Elem;
  });
  return Types;
}

cir::ElemType inferElemType(const cir::Expr &E,
                            const std::map<std::string, cir::ElemType> &Types) {
  using namespace cir;
  // Double as soon as a float literal or a double (or undeclared) name is
  // read; an array's subscripts do not decide its element type.
  bool Double = false;
  forEachSubExpr(E, [&](const Expr &Sub) {
    const std::string *Name = nullptr;
    if (isa<FloatLit>(&Sub))
      Double = true;
    else if (const auto *V = dyn_cast<VarRef>(&Sub))
      Name = &V->Name;
    else if (const auto *A = dyn_cast<ArrayRef>(&Sub))
      Name = &A->Name;
    if (Name) {
      auto It = Types.find(*Name);
      Double = Double || It == Types.end() || It->second == ElemType::Double;
    }
    return !Double && !isa<ArrayRef>(&Sub);
  });
  return Double ? ElemType::Double : ElemType::Int;
}

} // namespace transform
} // namespace locus
