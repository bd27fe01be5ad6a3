//===- Parser.h - MiniC parser ---------------------------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for MiniC producing a cir::Program. This is the
/// "source code front end" of Fig. 1 in the paper: it reads the baseline
/// version, recognizes "#pragma @Locus loop=NAME" / "block=NAME" region
/// annotations, and materializes them as named Block nodes.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_CIR_PARSER_H
#define LOCUS_CIR_PARSER_H

#include "src/cir/Ast.h"
#include "src/cir/Lexer.h"
#include "src/support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace locus {
namespace cir {

/// Parses MiniC source text into a Program. Returns an error message on the
/// first syntax problem encountered.
Expected<std::unique_ptr<Program>> parseProgram(const std::string &Source);

/// Parses a sequence of statements (no declarations of new arrays), used by
/// the BuiltIn.Altdesc module to splice external code snippets into a region.
Expected<std::vector<StmtPtr>> parseStatements(const std::string &Source);

namespace detail {

/// Implementation class; exposed for unit testing of individual productions.
class Parser {
public:
  Parser(std::vector<Token> Tokens, std::map<std::string, int64_t> Defines)
      : Tokens(std::move(Tokens)), Defines(std::move(Defines)) {}

  Expected<std::unique_ptr<Program>> parseProgramTokens();
  Expected<std::vector<StmtPtr>> parseStatementList();

private:
  const Token &peek(int Ahead = 0) const;
  const Token &advance();
  bool matchPunct(const char *P);
  bool expectPunct(const char *P);
  void fail(const std::string &Message);

  // Productions.
  StmtPtr parseStmt();
  std::unique_ptr<Block> parseBlock();
  StmtPtr parseFor();
  StmtPtr parseIf();
  StmtPtr parseDecl(bool IsGlobal);
  StmtPtr parseSimpleStmt();
  ExprPtr parseExpr();
  ExprPtr parseOr();
  ExprPtr parseAnd();
  ExprPtr parseEquality();
  ExprPtr parseRelational();
  ExprPtr parseAdditive();
  ExprPtr parseMultiplicative();
  ExprPtr parseUnary();
  ExprPtr parsePrimary();

  /// Handles a run of pragma tokens: Locus region pragmas drive region
  /// wrapping; other pragmas accumulate into PendingPragmas.
  void collectPragmas();

  std::vector<Token> Tokens;
  std::map<std::string, int64_t> Defines;
  size_t Pos = 0;
  std::string ErrorMessage;

  std::vector<std::string> PendingPragmas;
  std::string PendingLoopRegion;  ///< from "#pragma @Locus loop=NAME"
  std::string PendingBlockRegion; ///< from "#pragma @Locus block=NAME"
  /// Number of PendingPragmas seen before the @Locus region marker: those
  /// belong to the region block, later ones to the wrapped statement (e.g.
  /// "omp parallel for" emitted between the marker and its loop).
  size_t PendingRegionSplit = 0;

  /// Values of `const` and global int scalars with constant initializers,
  /// the environment evalConstInt() folds array dimensions and steps in.
  std::map<std::string, int64_t> ConstInts;
  std::unique_ptr<Program> Prog;
};

} // namespace detail
} // namespace cir
} // namespace locus

#endif // LOCUS_CIR_PARSER_H
