//===- LocusPrinterTest.cpp - printer and direct-program export tests ---------===//

#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/locus/LocusPrinter.h"
#include "src/search/Search.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using namespace lang;

std::unique_ptr<LocusProgram> parseL(const std::string &Src) {
  auto P = parseLocusProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

TEST(LocusPrinter, RoundTripsPaperPrograms) {
  for (const std::string &Src :
       {workloads::dgemmLocusFig5(), workloads::dgemmLocusFig7(512),
        workloads::stencilLocusFig9(16, 128),
        workloads::kripkeLocusFig11("Scattering"),
        workloads::fig13GenericProgram()}) {
    auto P1 = parseL(Src);
    ASSERT_NE(P1, nullptr);
    std::string Printed = printLocusProgram(*P1);
    auto P2 = parseLocusProgram(Printed);
    ASSERT_TRUE(P2.ok()) << P2.message() << "\n" << Printed;
    // Fixed point: printing the reparse gives identical text.
    EXPECT_EQ(Printed, printLocusProgram(**P2)) << Printed;
  }
}

TEST(LocusPrinter, DirectExportPinsEverything) {
  auto LP = parseL(workloads::dgemmLocusFig5());
  auto CP = cir::parseProgram(workloads::dgemmSource(16, 16, 16));
  ASSERT_TRUE(CP.ok());
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP->get();
  ASSERT_TRUE(Interp.extractSpace(**CP, Space, TCtx).Ok);

  // Pin: alternative 0 (2D tiling) with tileI=8, tileJ=16.
  search::Point P;
  for (const search::ParamDef &Def : Space.Params) {
    if (Def.Label == "tileI")
      P.set(Def.Id, int64_t(8));
    else if (Def.Label == "tileJ")
      P.set(Def.Id, int64_t(16));
    else
      P.set(Def.Id, int64_t(0)); // OR selector: first alternative
  }
  auto Direct = exportDirectProgram(*LP, P);
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  std::string Text = printLocusProgram(**Direct);

  // No search constructs survive in the executed path, and the pinned
  // values appear literally.
  EXPECT_EQ(Text.find("poweroftwo"), std::string::npos) << Text;
  EXPECT_NE(Text.find("8"), std::string::npos);
  EXPECT_NE(Text.find("16"), std::string::npos);

  // The exported program parses and runs as a direct program, producing the
  // same variant as applyPoint with the original program.
  auto Reparsed = parseLocusProgram(Text);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.message() << "\n" << Text;

  auto V1 = (*CP)->clone();
  auto V2 = (*CP)->clone();
  transform::TransformContext T1, T2;
  T1.Prog = V1.get();
  T2.Prog = V2.get();
  ExecOutcome O1 = Interp.applyPoint(*V1, P, T1);
  LocusInterpreter DirectInterp(**Reparsed, Reg);
  ExecOutcome O2 = DirectInterp.applyDirect(*V2, T2);
  ASSERT_TRUE(O1.Ok) << O1.Error;
  ASSERT_TRUE(O2.Ok) << O2.Error << "\n" << Text;
  EXPECT_EQ(O1.TransformsApplied, O2.TransformsApplied);
  EXPECT_EQ(cir::listLoops(*V1->findRegions("matmul")[0]).size(),
            cir::listLoops(*V2->findRegions("matmul")[0]).size());
}

TEST(LocusPrinter, DirectExportOfFig7) {
  auto LP = parseL(workloads::dgemmLocusFig7(64));
  auto CP = cir::parseProgram(workloads::dgemmSource(32, 32, 32));
  ASSERT_TRUE(CP.ok());
  ModuleRegistry Reg = ModuleRegistry::standard();
  LocusInterpreter Interp(*LP, Reg);
  search::Space Space;
  transform::TransformContext TCtx;
  TCtx.Prog = CP->get();
  ASSERT_TRUE(Interp.extractSpace(**CP, Space, TCtx).Ok);

  search::Point P;
  for (const search::ParamDef &Def : Space.Params)
    P.set(Def.Id, search::enumerateValues(Def)[1]);
  auto Direct = exportDirectProgram(*LP, P);
  ASSERT_TRUE(Direct.ok()) << Direct.message();
  std::string Text = printLocusProgram(**Direct);
  EXPECT_EQ(Text.find("poweroftwo"), std::string::npos) << Text;
  EXPECT_EQ(Text.find(" OR "), std::string::npos) << Text;
  auto Reparsed = parseLocusProgram(Text);
  ASSERT_TRUE(Reparsed.ok()) << Reparsed.message() << "\n" << Text;
}

} // namespace
} // namespace locus
