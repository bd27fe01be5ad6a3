//===- Affine.cpp - Affine form extraction ---------------------------------===//

#include "src/analysis/Affine.h"

#include <sstream>

namespace locus {
namespace analysis {

AffineExpr AffineExpr::operator+(const AffineExpr &Other) const {
  AffineExpr Result;
  Result.Overflowed = Overflowed || Other.Overflowed;
  Result.Overflowed |=
      __builtin_add_overflow(Constant, Other.Constant, &Result.Constant);
  // Merge the two name-sorted term lists; a sum that cancels to 0 drops.
  Result.Coeffs.reserve(Coeffs.size() + Other.Coeffs.size());
  auto L = Coeffs.begin(), LEnd = Coeffs.end();
  auto R = Other.Coeffs.begin(), REnd = Other.Coeffs.end();
  while (L != LEnd || R != REnd) {
    if (R == REnd || (L != LEnd && L->first < R->first)) {
      Result.Coeffs.push_back(*L++);
    } else if (L == LEnd || R->first < L->first) {
      Result.Coeffs.push_back(*R++);
    } else {
      int64_t Sum;
      Result.Overflowed |= __builtin_add_overflow(L->second, R->second, &Sum);
      if (Sum != 0)
        Result.Coeffs.emplace_back(L->first, Sum);
      ++L;
      ++R;
    }
  }
  return Result;
}

AffineExpr AffineExpr::operator-(const AffineExpr &Other) const {
  return *this + Other.scaled(-1);
}

AffineExpr AffineExpr::scaled(int64_t Factor) const {
  AffineExpr Result;
  Result.Overflowed = Overflowed;
  if (Factor == 0)
    return Result;
  Result.Overflowed |=
      __builtin_mul_overflow(Constant, Factor, &Result.Constant);
  Result.Coeffs = Coeffs;
  for (Term &T : Result.Coeffs)
    Result.Overflowed |= __builtin_mul_overflow(T.second, Factor, &T.second);
  return Result;
}

std::string AffineExpr::str() const {
  std::ostringstream Out;
  bool First = true;
  for (const auto &[Name, Coeff] : Coeffs) {
    if (!First)
      Out << " + ";
    First = false;
    if (Coeff == 1)
      Out << Name;
    else
      Out << Coeff << "*" << Name;
  }
  if (Constant != 0 || First) {
    if (!First)
      Out << " + ";
    Out << Constant;
  }
  return Out.str();
}

/// \p A, or nullopt when computing it overflowed.
static std::optional<AffineExpr> unlessOverflowed(AffineExpr A) {
  if (A.overflowed())
    return std::nullopt;
  return A;
}

std::optional<AffineExpr> toAffine(const cir::Expr &E) {
  using namespace cir;
  switch (E.kind()) {
  case ExprKind::IntLit:
    return AffineExpr(cast<IntLit>(&E)->Value);
  case ExprKind::VarRef:
    return AffineExpr::variable(cast<VarRef>(&E)->Name);
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(&E);
    if (U->Op != UnOp::Neg)
      return std::nullopt;
    std::optional<AffineExpr> Inner = toAffine(*U->Operand);
    if (!Inner)
      return std::nullopt;
    return unlessOverflowed(Inner->scaled(-1));
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(&E);
    std::optional<AffineExpr> L = toAffine(*B->Lhs);
    std::optional<AffineExpr> R = toAffine(*B->Rhs);
    switch (B->Op) {
    case BinOp::Add:
      if (L && R)
        return unlessOverflowed(*L + *R);
      return std::nullopt;
    case BinOp::Sub:
      if (L && R)
        return unlessOverflowed(*L - *R);
      return std::nullopt;
    case BinOp::Mul:
      if (L && R) {
        if (L->isConstant())
          return unlessOverflowed(R->scaled(L->constant()));
        if (R->isConstant())
          return unlessOverflowed(L->scaled(R->constant()));
      }
      return std::nullopt;
    case BinOp::Div:
      // Division only stays affine when it divides a constant exactly.
      if (L && R && L->isConstant() && R->isConstant() &&
          R->constant() != 0 &&
          !(L->constant() == INT64_MIN && R->constant() == -1) &&
          L->constant() % R->constant() == 0)
        return AffineExpr(L->constant() / R->constant());
      return std::nullopt;
    default:
      return std::nullopt;
    }
  }
  case ExprKind::Call: {
    // min/max of constants folds; otherwise non-affine.
    const auto *C = cast<CallExpr>(&E);
    if ((C->Callee == "min" || C->Callee == "max") && C->Args.size() == 2) {
      std::optional<AffineExpr> A = toAffine(*C->Args[0]);
      std::optional<AffineExpr> B = toAffine(*C->Args[1]);
      if (A && B && A->isConstant() && B->isConstant()) {
        int64_t V = C->Callee == "min"
                        ? std::min(A->constant(), B->constant())
                        : std::max(A->constant(), B->constant());
        return AffineExpr(V);
      }
    }
    return std::nullopt;
  }
  case ExprKind::FloatLit:
  case ExprKind::ArrayRef:
    return std::nullopt;
  }
  return std::nullopt;
}

} // namespace analysis
} // namespace locus
