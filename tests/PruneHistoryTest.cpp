//===- PruneHistoryTest.cpp - Golden search histories, pruned or not -------===//
//
// Static pruning decides how a point's failure is found, never what the
// search sees: a pruned point flows through the searcher exactly like the
// objective's own failure. This suite pins that contract to
// tests/data/prune_history_golden.txt, the full History (point key, valid,
// failure kind, detail, metric bits) of seeded searches over
//
//   - the 8 PolyBench kernels at N=16: region discovery, annotation of the
//     hottest nest, and the Fig. 13 generic program, tuned by bandit and de;
//   - the Fig. 7 dgemm program on dgemm 32^3, tuned by bandit and de;
//
// and asserts it with pruning on and off, at --jobs 1 and --jobs 4. The
// illegal interchanges, tilings and unroll-and-jams the generic program
// proposes are the points whose failure moved from a pruning pass into
// the objective; the Fig. 7 dependent tile ranges are the points the range
// checks still prune.
//
// Regenerating the golden file (only when a change to the trajectories is
// intended):
//
//   LOCUS_WRITE_GOLDEN=tests/data/prune_history_golden.txt
//       build/tests/locus_tests --gtest_filter=PruneHistory.SerialUnpruned
//
//===----------------------------------------------------------------------===//

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace locus {
namespace {

using driver::Orchestrator;
using driver::OrchestratorOptions;

constexpr int PolybenchN = 16;
constexpr int PolybenchBudget = 30;
constexpr int DgemmBudget = 40;

/// One seeded search of the corpus.
struct Case {
  std::string Name;
  std::shared_ptr<const lang::LocusProgram> Locus;
  std::shared_ptr<const cir::Program> Target;
  std::string Searcher;
  int Budget = 0;
  uint64_t Seed = 0;
};

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\t')
      Out += "\\t";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
  return Out;
}

/// One golden line per History record: case, step, point key, valid,
/// failure kind, detail and the metric as a hex float (exact bits).
std::string describe(const std::string &Name, size_t Step,
                     const search::EvalRecord &Rec) {
  char Metric[64];
  std::snprintf(Metric, sizeof(Metric), "%a", Rec.Metric);
  std::ostringstream Out;
  Out << Name << '\t' << Step << '\t' << escape(Rec.P.key()) << '\t'
      << (Rec.Valid ? 1 : 0) << '\t' << search::failureKindName(Rec.Failure)
      << '\t' << escape(Rec.Detail) << '\t' << Metric;
  return Out.str();
}

std::vector<Case> buildCorpus() {
  std::vector<Case> Cases;
  const std::vector<std::string> Searchers = {"bandit", "de"};
  uint64_t Seed = 7;
  for (const std::string &Kernel : workloads::polybenchKernels()) {
    auto C = cir::parseProgram(workloads::polybenchSource(Kernel, PolybenchN));
    EXPECT_TRUE(C.ok()) << Kernel << ": " << C.message();
    if (!C.ok())
      continue;
    analysis::DiscoveryOptions DOpts;
    DOpts.Machine = machine::MachineConfig::tiny();
    analysis::DiscoveryReport Report = analysis::discoverRegions(**C, DOpts);
    std::shared_ptr<cir::Program> Annotated = (*C)->clone();
    Expected<int> Injected = analysis::annotateRegions(*Annotated, Report, 1);
    EXPECT_TRUE(Injected.ok()) << Kernel;
    EXPECT_FALSE(Report.annotatable(1).empty()) << Kernel;
    if (!Injected.ok() || Report.annotatable(1).empty())
      continue;
    auto L = lang::parseLocusProgram(
        analysis::genericLocusProgram(*Report.annotatable(1).front()));
    EXPECT_TRUE(L.ok()) << Kernel << ": " << L.message();
    if (!L.ok())
      continue;
    std::shared_ptr<const lang::LocusProgram> Locus = std::move(*L);
    for (const std::string &S : Searchers)
      Cases.push_back({Kernel + "/" + S, Locus, Annotated, S, PolybenchBudget,
                       Seed++});
  }

  auto L = lang::parseLocusProgram(workloads::dgemmLocusFig7(16));
  auto C = cir::parseProgram(workloads::dgemmSource(32, 32, 32));
  EXPECT_TRUE(L.ok() && C.ok());
  if (L.ok() && C.ok()) {
    std::shared_ptr<const lang::LocusProgram> Locus = std::move(*L);
    std::shared_ptr<const cir::Program> Target = std::move(*C);
    for (const std::string &S : Searchers)
      Cases.push_back({"dgemm_fig7/" + S, Locus, Target, S, DgemmBudget,
                       Seed++});
  }
  return Cases;
}

/// Every golden line of every case, in corpus order.
std::vector<std::string> runCorpus(int Jobs, bool StaticPrune) {
  std::vector<std::string> Lines;
  for (const Case &K : buildCorpus()) {
    OrchestratorOptions Opts;
    Opts.Eval.Machine = machine::MachineConfig::tiny();
    Opts.SearcherName = K.Searcher;
    Opts.MaxEvaluations = K.Budget;
    Opts.Seed = K.Seed;
    Opts.Jobs = Jobs;
    Opts.StaticPrune = StaticPrune;
    // The golden holds the default pipeline. --verify-each (on under the
    // asan test preset) rejects some unrolled variants as illegal and so
    // changes the histories.
    Opts.VerifyEach = false;
    Orchestrator Orch(*K.Locus, *K.Target, Opts);
    auto R = Orch.runSearch();
    if (!R.ok()) {
      Lines.push_back(K.Name + "\terror\t" + escape(R.message()));
      continue;
    }
    for (size_t I = 0; I < R->Search.History.size(); ++I)
      Lines.push_back(describe(K.Name, I, R->Search.History[I]));
  }
  return Lines;
}

std::string goldenPath() {
  return LOCUS_TEST_DATA_DIR "/prune_history_golden.txt";
}

std::vector<std::string> loadGolden() {
  std::vector<std::string> Lines;
  std::ifstream In(goldenPath());
  EXPECT_TRUE(In.good()) << goldenPath();
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Lines.push_back(Line);
  return Lines;
}

void expectGolden(int Jobs, bool StaticPrune) {
  std::vector<std::string> Golden = loadGolden();
  std::vector<std::string> Got = runCorpus(Jobs, StaticPrune);
  EXPECT_EQ(Got.size(), Golden.size());
  int Mismatches = 0;
  for (size_t I = 0; I < std::min(Got.size(), Golden.size()); ++I)
    if (Got[I] != Golden[I] && ++Mismatches <= 20)
      ADD_FAILURE() << "record " << I << "\n  golden: " << Golden[I]
                    << "\n  got:    " << Got[I];
  EXPECT_EQ(Mismatches, 0);
}

TEST(PruneHistory, SerialUnpruned) {
  if (const char *Out = std::getenv("LOCUS_WRITE_GOLDEN")) {
    std::vector<std::string> Lines = runCorpus(1, false);
    std::ofstream F(Out);
    F << "# Search histories of tests/PruneHistoryTest.cpp's corpus; see "
         "the header of that file.\n";
    for (const std::string &L : Lines)
      F << L << "\n";
    ASSERT_TRUE(F.good()) << Out;
    GTEST_SKIP() << "wrote " << Lines.size() << " golden records to " << Out;
  }
  expectGolden(1, false);
}

TEST(PruneHistory, SerialPruned) { expectGolden(1, true); }

TEST(PruneHistory, PooledUnpruned) { expectGolden(4, false); }

TEST(PruneHistory, PooledPruned) { expectGolden(4, true); }

} // namespace
} // namespace locus
