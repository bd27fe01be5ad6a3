//===- Printer.h - MiniC unparser ------------------------------*- C++ -*-===//
///
/// \file
/// Unparses the MiniC AST back into C source text. Used to (a) hash code
/// regions for the coherence check of Section II, (b) emit compilable C for
/// the native evaluator, and (c) show variants to humans.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_CIR_PRINTER_H
#define LOCUS_CIR_PRINTER_H

#include "src/cir/Ast.h"

#include <string>

namespace locus {
namespace cir {

/// Unparsing options.
struct PrintOptions {
  /// Re-emit "#pragma @Locus ..." region markers around region blocks.
  bool EmitRegionPragmas = true;
};

/// Renders an expression as C source.
std::string printExpr(const Expr &E);

/// Renders a statement (recursively) as C source.
std::string printStmt(const Stmt &S, const PrintOptions &Opts = {},
                      int Indent = 0);

/// Renders a whole program: globals then the main body statements.
std::string printProgram(const Program &P, const PrintOptions &Opts = {});

} // namespace cir
} // namespace locus

#endif // LOCUS_CIR_PRINTER_H
