//===- Transform.cpp - Transformation module shared helpers ----------------===//

#include "src/transform/Transform.h"

#include "src/cir/AstUtils.h"

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
  switch (E.kind()) {
  case ExprKind::IntLit:
    return ElemType::Int;
  case ExprKind::FloatLit:
    return ElemType::Double;
  case ExprKind::VarRef: {
    auto It = Types.find(cast<VarRef>(&E)->Name);
    return It != Types.end() ? It->second : ElemType::Double;
  }
  case ExprKind::ArrayRef: {
    auto It = Types.find(cast<ArrayRef>(&E)->Name);
    return It != Types.end() ? It->second : ElemType::Double;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    if (inferElemType(*B->Lhs, Types) == ElemType::Double ||
        inferElemType(*B->Rhs, Types) == ElemType::Double)
      return ElemType::Double;
    return ElemType::Int;
  }
  case ExprKind::Unary:
    return inferElemType(*cast<UnaryExpr>(&E)->Operand, Types);
  case ExprKind::Call: {
    const auto *C = cast<CallExpr>(&E);
    for (const auto &A : C->Args)
      if (inferElemType(*A, Types) == ElemType::Double)
        return ElemType::Double;
    return ElemType::Int;
  }
  }
  return ElemType::Double;
}

} // namespace transform
} // namespace locus
