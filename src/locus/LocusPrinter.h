//===- LocusPrinter.h - Locus program unparser ------------------*- C++ -*-===//
///
/// \file
/// Renders Locus ASTs back to source text, and exports *direct programs*:
/// the paper (Section II) says the search's result "is a Locus direct
/// program that can be shipped with the baseline source code to be reused
/// for machines with similar environments". exportDirectProgram pins every
/// search construct of a program to the values of a Point — OR blocks and
/// OR statements collapse to the chosen alternative, optional statements are
/// kept or dropped, and the search data types become literals.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_LOCUS_LOCUSPRINTER_H
#define LOCUS_LOCUS_LOCUSPRINTER_H

#include "src/locus/LocusAst.h"
#include "src/search/Space.h"
#include "src/support/Error.h"

#include <string>

namespace locus {
namespace lang {

/// Renders the program as Locus source text (parseable round trip).
std::string printLocusProgram(const LocusProgram &Prog);

/// Pins every search construct of \p Prog to \p Point (whose keys use the
/// extractor's path#NodeId identities) and returns the resulting direct
/// program. Constructs inside OptSeqs invoked from several call sites keep
/// their per-callsite identities, so the OptSeq is specialized per use.
Expected<std::unique_ptr<LocusProgram>>
exportDirectProgram(const LocusProgram &Prog, const search::Point &Point);

} // namespace lang
} // namespace locus

#endif // LOCUS_LOCUS_LOCUSPRINTER_H
