//===- PointTextTest.cpp - Point text forms stay byte-identical -------------===//
//
// Journals, queue tasks, cache entries and --point files carry points as
// text, and History keys feed every golden. These tests pin the text forms
// of sampled points over the Fig. 5, Fig. 7 and Fig. 13 (on syrk) spaces —
// Point::key(), Point::activeKey() and serializePoint — to
// tests/data/point_text_golden.txt, written by a build whose points were
// string-keyed maps, and resume a journal that build wrote.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "TestFiles.h"

#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/search/Search.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace locus {
namespace {

/// syrk with its update nest marked as region "scop" for Fig. 13.
std::string syrkScop() {
  std::string Src = workloads::polybenchSource("syrk", 16);
  size_t Nest = Src.rfind("  for (i", Src.find("for (k"));
  Src.insert(Nest, "#pragma @Locus loop=scop\n");
  return Src;
}

search::Space extract(const std::string &Locus, const std::string &C) {
  search::Space S;
  auto LP = lang::parseLocusProgram(Locus);
  auto CP = cir::parseProgram(C);
  EXPECT_TRUE(LP.ok() && CP.ok());
  if (!LP.ok() || !CP.ok())
    return S;
  lang::ModuleRegistry Reg = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**LP, Reg);
  transform::TransformContext TCtx;
  TCtx.Prog = CP->get();
  lang::ExecOutcome O = Interp.extractSpace(**CP, S, TCtx);
  EXPECT_TRUE(O.Ok) << O.Error;
  return S;
}

TEST(PointText, SampledPointsMatchTheGolden) {
  const std::pair<const char *, search::Space> Spaces[] = {
      {"fig5", extract(workloads::dgemmLocusFig5(),
                       workloads::dgemmSource(16, 16, 16))},
      {"fig7", extract(workloads::dgemmLocusFig7(512),
                       workloads::dgemmSource(32, 32, 32))},
      {"syrk/fig13", extract(workloads::fig13GenericProgram(), syrkScop())},
  };
  std::vector<std::string> Lines;
  for (const auto &[Name, S] : Spaces) {
    char Fp[17];
    std::snprintf(Fp, sizeof(Fp), "%016" PRIx64, S.fingerprint());
    Lines.push_back(std::string(Name) + "\tfingerprint\t" + Fp);
    Rng R(2026);
    for (int I = 0; I < 3; ++I) {
      search::Point P = search::samplePoint(S, R);
      std::string Text = search::serializePoint(P);
      Lines.push_back(std::string(Name) + "\t" + std::to_string(I) + "\t" +
                      P.key() + "\t" + P.activeKey(S) + "\t" +
                      test::escapeField(Text));
      auto Back = search::deserializePoint(Text, S);
      ASSERT_TRUE(Back.ok()) << Back.message();
      EXPECT_EQ(Back->key(), P.key()) << Name;
      EXPECT_EQ(search::serializePoint(*Back), Text) << Name;
    }
  }
  EXPECT_EQ(Spaces[0].second.fingerprint(), 0x0f0979b507b2ae79ULL);
  test::expectGolden("point_text_golden.txt", Lines);
}

/// The first \p Budget evaluations of the Fig. 5 DE search the journal
/// fixture was written by (dgemm 24^3, tiny machine, seed 7).
Expected<driver::SearchWorkflowResult> fig5De(int Budget,
                                              const std::string &Journal) {
  auto LP = lang::parseLocusProgram(workloads::dgemmLocusFig5());
  auto CP = cir::parseProgram(workloads::dgemmSource(24, 24, 24));
  if (!LP.ok() || !CP.ok())
    return Expected<driver::SearchWorkflowResult>::error("parse failed");
  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.SearcherName = "de";
  Opts.Seed = 7;
  Opts.MaxEvaluations = Budget;
  Opts.JournalPath = Journal;
  Opts.JournalSyncMode = search::JournalSync::None;
  Opts.ResumeFromJournal = !Journal.empty();
  return driver::Orchestrator(**LP, **CP, Opts).runSearch();
}

TEST(PointText, JournalOfMapPointsResumes) {
  // tests/data/fig5_de_journal.rlog holds the first 12 evaluations, written
  // by the map-point build; resuming it to 24 must replay all 12 and end
  // where an uninterrupted run does.
  test::TempFile F("fig5_de.rlog");
  {
    std::ifstream In(LOCUS_TEST_DATA_DIR "/fig5_de_journal.rlog",
                     std::ios::binary);
    std::ofstream Out(F.Path, std::ios::binary);
    Out << In.rdbuf();
  }
  auto Resumed = fig5De(24, F.Path);
  ASSERT_TRUE(Resumed.ok()) << Resumed.message();
  auto Fresh = fig5De(24, "");
  ASSERT_TRUE(Fresh.ok()) << Fresh.message();
  EXPECT_EQ(Resumed->Search.ReplayedEvaluations, 12);
  ASSERT_EQ(Resumed->Search.History.size(), Fresh->Search.History.size());
  for (size_t I = 0; I < Fresh->Search.History.size(); ++I) {
    EXPECT_EQ(Resumed->Search.History[I].P.key(),
              Fresh->Search.History[I].P.key())
        << I;
    EXPECT_EQ(Resumed->Search.History[I].Metric,
              Fresh->Search.History[I].Metric)
        << I;
  }
  EXPECT_EQ(Resumed->Search.Best.key(), Fresh->Search.Best.key());
  EXPECT_EQ(Resumed->BestCycles, Fresh->BestCycles);
}

} // namespace
} // namespace locus
