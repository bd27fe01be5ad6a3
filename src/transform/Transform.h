//===- Transform.h - Transformation module interface -----------*- C++ -*-===//
///
/// \file
/// Shared types of the transformation modules. The paper (Section II,
/// Section IV-A) requires every integrated module to report an exit status
/// (successful / error / illegal) through its wrapper function; this is that
/// status protocol. Each module checks legality with the dependence analyzer
/// when dependences are computable; when they are not, the module proceeds
/// (the paper lets programmers enforce transformations they know are legal)
/// unless TransformOptions::RequireDeps is set.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TRANSFORM_TRANSFORM_H
#define LOCUS_TRANSFORM_TRANSFORM_H

#include "src/cir/Ast.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace locus {
namespace transform {

/// Module exit status, mirroring the wrapper-function protocol of Section II.
enum class TransformStatus {
  Success, ///< the region was rewritten
  NoOp,    ///< nothing to do (e.g. distribution of a single statement)
  Illegal, ///< the dependence analyzer proved the rewrite unsafe
  Error    ///< malformed arguments or unsupported code shape
};

/// Result of invoking one transformation module.
struct TransformResult {
  TransformStatus Status = TransformStatus::Success;
  std::string Message;

  /// Name of the code region the module was applied to; filled by the module
  /// registry layer so every Illegal/Error diagnostic carries its region.
  std::string Region;

  /// Source location of the region (or failing construct) the status refers
  /// to; filled alongside Region.
  support::SrcLoc Loc;

  static TransformResult make(TransformStatus S, std::string Why) {
    TransformResult R;
    R.Status = S;
    R.Message = std::move(Why);
    return R;
  }
  static TransformResult success() {
    return make(TransformStatus::Success, "");
  }
  static TransformResult noop(std::string Why = "") {
    return make(TransformStatus::NoOp, std::move(Why));
  }
  static TransformResult illegal(std::string Why) {
    return make(TransformStatus::Illegal, std::move(Why));
  }
  static TransformResult error(std::string Why) {
    return make(TransformStatus::Error, std::move(Why));
  }

  bool succeeded() const { return Status == TransformStatus::Success; }
  bool applied() const {
    return Status == TransformStatus::Success || Status == TransformStatus::NoOp;
  }
};

/// Options and shared state threaded through module invocations.
struct TransformContext {
  /// When true, modules refuse to transform code whose dependences cannot be
  /// computed (instead of trusting the programmer).
  bool RequireDeps = false;

  /// The enclosing program; used to look up declared element types when
  /// synthesizing temporaries (LICM, scalar replacement). May be null, in
  /// which case temporaries default to double.
  const cir::Program *Prog = nullptr;

  /// Named code snippets for BuiltIn.Altdesc; stands in for the external
  /// snippet files of Fig. 11 (scatter_DZG.txt, ...).
  std::map<std::string, std::string> Snippets;

  /// When true, the interpreter runs the CIR verifier after every mutating
  /// module call (LLVM's -verify-each discipline); a transformation that
  /// produces invalid IR fails at the rewrite that introduced it.
  bool VerifyEach = false;

  /// When true, Pragma.OMPFor attaches `omp parallel for` even to loops the
  /// parallel-safety analyzer proves racy (the programmer-knows-best escape
  /// hatch; the checksum validator still guards such variants). Default off:
  /// proven races are rejected with their witness.
  bool TrustParallel = false;

  /// When true, BuiltIn.Altdesc may resolve a snippet argument that is not a
  /// registered snippet name by reading it as a filesystem path. Off by
  /// default so search-driven module replay never touches the filesystem;
  /// the CLI turns it on (the paper's external snippet files, Fig. 11).
  bool AllowSnippetFiles = false;
};

/// Collects declared element types (globals plus every local declaration).
std::map<std::string, cir::ElemType> collectDeclTypes(const cir::Program &P);

/// Infers the element type of \p E: double when any referenced name is
/// declared double or a float literal appears, int otherwise.
cir::ElemType inferElemType(const cir::Expr &E,
                            const std::map<std::string, cir::ElemType> &Types);

/// Returns a variable name starting with \p Base that is not yet used
/// anywhere in \p Scope (appends _2, _3, ... on collision).
std::string freshName(const cir::Block &Scope, const std::string &Base);

/// A detached loop header: a ForStmt without its body. The transforms that
/// rebuild or permute nests (tiling, interchange, generic tiling) assemble
/// these and turn them into loops with buildChain().
struct Header {
  std::string Var;
  cir::ExprPtr Init;
  cir::BoundOp Op = cir::BoundOp::Lt;
  cir::ExprPtr Bound;
  int64_t Step = 1;

  /// A copy of \p L's header.
  static Header of(const cir::ForStmt &L);
};

/// Nests loops with \p Headers (outermost first) around \p Body, built
/// inside out, and returns the outermost loop. \p Headers is not empty.
cir::StmtPtr buildChain(std::vector<Header> Headers,
                        std::unique_ptr<cir::Block> Body);

} // namespace transform
} // namespace locus

#endif // LOCUS_TRANSFORM_TRANSFORM_H
