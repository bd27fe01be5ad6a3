//===- Affine.h - Affine form extraction -----------------------*- C++ -*-===//
///
/// \file
/// Converts MiniC index/bound expressions into affine form over loop
/// induction variables and symbolic parameters: sum(Coeff_i * Var_i) + Const.
/// Expressions that cannot be put in this form (indirect accesses, modulo,
/// products of variables) are rejected; dependence analysis then reports that
/// dependences are unavailable, which drives the "IsDepAvailable" query used
/// by the generic optimization program of Fig. 13.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_ANALYSIS_AFFINE_H
#define LOCUS_ANALYSIS_AFFINE_H

#include "src/cir/Ast.h"

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace locus {
namespace analysis {

/// An affine expression: Constant + sum of Coefficient * VariableName.
/// Variables may be loop induction variables or symbolic parameters; the
/// caller distinguishes them by name.
class AffineExpr {
public:
  /// One (name, coefficient) term; coeffs() keeps them sorted by name.
  using Term = std::pair<std::string, int64_t>;

  AffineExpr() = default;
  explicit AffineExpr(int64_t Constant) : Constant(Constant) {}

  static AffineExpr variable(const std::string &Name, int64_t Coeff = 1) {
    AffineExpr E;
    if (Coeff != 0)
      E.Coeffs.emplace_back(Name, Coeff);
    return E;
  }

  int64_t constant() const { return Constant; }
  /// The non-zero terms, sorted by name.
  const std::vector<Term> &coeffs() const { return Coeffs; }

  /// Coefficient of \p Name (0 when absent).
  int64_t coeff(const std::string &Name) const {
    for (const Term &T : Coeffs)
      if (T.first == Name)
        return T.second;
    return 0;
  }

  bool isConstant() const { return Coeffs.empty(); }

  AffineExpr operator+(const AffineExpr &Other) const;
  AffineExpr operator-(const AffineExpr &Other) const;
  AffineExpr scaled(int64_t Factor) const;

  bool operator==(const AffineExpr &Other) const {
    return Constant == Other.Constant && Coeffs == Other.Coeffs;
  }

  /// True when a constant or coefficient overflowed int64_t while this form
  /// was computed (the value then wrapped); toAffine() never returns one.
  bool overflowed() const { return Overflowed; }

  /// Renders "2*i + j + 3" style text for diagnostics.
  std::string str() const;

private:
  int64_t Constant = 0;
  /// A flat vector: subscripts have a few terms, and a vector allocates
  /// once where a map allocates per term.
  std::vector<Term> Coeffs;
  bool Overflowed = false;
};

/// Tries to convert \p E into affine form. Returns nullopt for non-affine
/// expressions and when a constant or coefficient would overflow int64_t.
/// Every VarRef becomes a variable term; calls, modulo, divisions and
/// variable products are non-affine. ArrayRef subscripts make the whole
/// expression non-affine (indirect access).
std::optional<AffineExpr> toAffine(const cir::Expr &E);

} // namespace analysis
} // namespace locus

#endif // LOCUS_ANALYSIS_AFFINE_H
