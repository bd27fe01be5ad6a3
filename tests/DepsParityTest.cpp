//===- DepsParityTest.cpp - Golden dependence facts and variant keys -----===//
//
// Legality checking runs once per variant, so the dependence tests are on
// the per-variant hot path. This suite records what they derive on a fixed
// corpus and compares it with tests/data/deps_golden.txt line by line:
//
//   - the corpus: the eight examples/polybench kernels, two seeded
//     loopCorpus() draws (the Table I nests), and every variant
//     materialized for seeded points of the Fig. 5 and Fig. 7 dgemm
//     programs, the Fig. 13 generic program over Table I nests, and the
//     generic program over each PolyBench kernel's top discovered nest;
//   - per loop of each program: DependenceInfo::compute()'s availability
//     (or its located reason), every dependence (source and destination
//     statement, array, kind, scalar flag, direction vector, common-loop
//     count), and analyzeParallelLoop()'s verdict, witnesses and clauses.
//
// It also pins makeCacheKey(printProgram(V)) for a few seeded variants, so
// a printer change that moves a byte invalidates no locus-evalcache store.
//
// tests/Golden.h says how to regenerate the golden file.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "TestFiles.h"

#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Modules.h"
#include "src/search/EvalCache.h"
#include "src/search/PointCodec.h"
#include "src/search/Space.h"
#include "src/support/Hashing.h"
#include "src/support/Rng.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace locus {
namespace {

using Lines = std::vector<std::pair<std::string, std::string>>;

/// Lists longer than this are recorded by hash only.
constexpr size_t MaxListedDeps = 600;

std::unique_ptr<cir::Program> parse(const std::string &Key,
                                    const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << Key << ": " << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

const char *verdictName(analysis::ParallelVerdict V) {
  switch (V) {
  case analysis::ParallelVerdict::Safe:
    return "safe";
  case analysis::ParallelVerdict::Racy:
    return "racy";
  case analysis::ParallelVerdict::Unknown:
    return "unknown";
  }
  return "?";
}

/// " fnv <hash>" of \p Text, then \p Text itself when short: unrolled
/// variants have thousands of dependences, so long lists are kept as their
/// hash, which still pins every byte.
std::string list(const std::string &Text) {
  return " fnv " + std::to_string(fnv1a(Text)) +
         (Text.size() <= MaxListedDeps ? Text : std::string());
}

/// One line per loop of \p P: dependences, then the parallel-safety verdict.
void recordLoops(const std::string &Key, cir::Program &P, Lines &Out) {
  for (const cir::LoopEntry &L : cir::listLoops(*P.Body)) {
    std::ostringstream Line;
    support::Diag Why;
    std::optional<analysis::DependenceInfo> Info =
        analysis::DependenceInfo::compute(*L.Loop, &Why);
    if (!Info) {
      Line << "unavailable " << Why.render();
    } else {
      std::ostringstream Deps;
      for (const analysis::Dependence &D : Info->deps()) {
        Deps << " " << D.SrcStmt << "->" << D.DstStmt << " " << D.Array << " "
             << static_cast<int>(D.Kind) << (D.IsScalar ? "s" : "") << " ";
        for (char C : D.Dirs)
          Deps << C;
        Deps << " c" << D.CommonLoops.size() << ";";
      }
      Line << "leaves " << Info->leafStmtCount() << " deps "
           << Info->deps().size() << list(Deps.str());
    }
    analysis::ParallelSafetyReport Rep = analysis::analyzeParallelLoop(*L.Loop);
    Line << " | " << verdictName(Rep.Verdict) << " " << Rep.summary();
    std::string Witnesses;
    for (const analysis::RaceWitness &W : Rep.Witnesses)
      Witnesses += " | " + W.render();
    Line << " | witnesses " << Rep.Witnesses.size() << list(Witnesses)
         << " | clauses " << Rep.clauses();
    Out.emplace_back(Key + "/" + L.Path, test::escapeField(Line.str()));
  }
}

/// Up to \p Count distinct seeded points of \p LocusSrc over \p Src,
/// materialized, keyed by their serialized point.
std::vector<std::pair<std::string, std::unique_ptr<cir::Program>>>
materialize(const std::string &Key, const cir::Program &Base,
            const std::string &LocusSrc, int Count, uint64_t Seed) {
  std::vector<std::pair<std::string, std::unique_ptr<cir::Program>>> Out;
  auto LP = lang::parseLocusProgram(LocusSrc);
  EXPECT_TRUE(LP.ok()) << Key << ": " << LP.message();
  if (!LP.ok())
    return Out;
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  lang::LocusInterpreter Interp(**LP, Registry);
  search::Space Space;
  std::unique_ptr<cir::Program> Target = Base.clone();
  transform::TransformContext TCtx;
  TCtx.Prog = Target.get();
  EXPECT_TRUE(Interp.extractSpace(*Target, Space, TCtx).Ok) << Key;
  Rng R(Seed);
  std::set<std::string> Seen;
  for (int I = 0; I < Count; ++I) {
    search::Point P = search::samplePoint(Space, R);
    std::string Text = search::serializePoint(P);
    std::replace(Text.begin(), Text.end(), '\n', ';');
    std::unique_ptr<cir::Program> V = Base.clone();
    TCtx.Prog = V.get();
    if (!Seen.insert(Text).second || !Interp.applyPoint(*V, P, TCtx).Ok)
      continue;
    Out.emplace_back(Text, std::move(V));
  }
  return Out;
}

/// The annotated kernel and the generic program of its top discovered nest,
/// as the polybench_discover benchmark tunes it.
std::pair<std::unique_ptr<cir::Program>, std::string>
discoveredKernel(const std::string &Kernel) {
  auto P = parse(Kernel, workloads::polybenchSource(Kernel, 16));
  if (!P)
    return {};
  analysis::DiscoveryReport Report = analysis::discoverRegions(*P);
  Expected<int> Injected = analysis::annotateRegions(*P, Report, 1);
  EXPECT_TRUE(Injected.ok() && !Report.annotatable(1).empty()) << Kernel;
  if (!Injected.ok() || Report.annotatable(1).empty())
    return {};
  return {std::move(P),
          analysis::genericLocusProgram(*Report.annotatable(1).front())};
}

void recordVariants(const std::string &Key, const cir::Program &Base,
                    const std::string &LocusSrc, int Count, uint64_t Seed,
                    Lines &Out) {
  int I = 0;
  for (auto &[Point, V] : materialize(Key, Base, LocusSrc, Count, Seed)) {
    std::string Variant = Key + "#" + std::to_string(I++);
    Out.emplace_back(Variant + "/point", Point);
    recordLoops(Variant, *V, Out);
  }
}

Lines buildLines() {
  Lines Out;
  for (const std::string &Kernel : workloads::polybenchKernels())
    if (auto P = parse(Kernel, test::slurp(LOCUS_TEST_DATA_DIR
                                           "/../../examples/polybench/" +
                                           Kernel + ".c")))
      recordLoops("polybench/" + Kernel, *P, Out);
  for (uint64_t Seed : {3, 13})
    for (const workloads::CorpusEntry &E : workloads::loopCorpus(0.05, Seed))
      if (auto P = parse(E.Name, E.Source))
        recordLoops("corpus" + std::to_string(Seed) + "/" + E.Suite + "/" +
                        E.Name,
                    *P, Out);

  if (auto P = parse("fig7", workloads::dgemmSource(16, 16, 16)))
    recordVariants("fig7", *P, workloads::dgemmLocusFig7(16), 24, 7, Out);
  if (auto P = parse("fig5", workloads::dgemmSource(12, 12, 12)))
    recordVariants("fig5", *P, workloads::dgemmLocusFig5(), 8, 5, Out);
  std::vector<workloads::CorpusEntry> Nests = workloads::loopCorpus(0.05, 13);
  for (size_t I = 0; I < Nests.size(); I += 5)
    if (auto P = parse(Nests[I].Name, Nests[I].Source))
      recordVariants("fig13/" + Nests[I].Name, *P,
                     workloads::fig13GenericProgram(), 4, 13, Out);
  for (const std::string &Kernel : workloads::polybenchKernels()) {
    auto [P, Locus] = discoveredKernel(Kernel);
    if (P)
      recordVariants("discover/" + Kernel, *P, Locus, 6, 17, Out);
  }
  return Out;
}

TEST(DepsParity, MatchesGolden) {
  Lines Got = buildLines();
  ASSERT_GT(Got.size(), 500u);
  std::vector<std::string> Text;
  for (const auto &[Key, Value] : Got)
    Text.push_back(Key + "\t" + Value);
  test::expectGolden("deps_golden.txt", Text);
}

std::string hexKey(const cir::Program &V) {
  search::CacheKey K = search::makeCacheKey(cir::printProgram(V));
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%016" PRIx64 "%016" PRIx64, K.Hi, K.Lo);
  return Buf;
}

// Keys recorded before the printer wrote into one string buffer; a
// persistent eval cache written by either printer must hit with the other.
TEST(DepsParity, PinnedVariantCacheKeys) {
  std::map<std::string, std::string> Got;
  auto Record = [&](const std::string &Key, const cir::Program &Base,
                    const std::string &LocusSrc, int Count, uint64_t Seed) {
    int I = 0;
    for (auto &[Point, V] : materialize(Key, Base, LocusSrc, Count, Seed))
      Got[Key + "#" + std::to_string(I++)] = hexKey(*V);
  };
  if (auto P = parse("fig7", workloads::dgemmSource(32, 32, 32)))
    Record("fig7", *P, workloads::dgemmLocusFig7(16), 3, 7);
  for (const std::string Kernel : {"gemver", "syrk"}) {
    auto [P, Locus] = discoveredKernel(Kernel);
    if (P)
      Record(Kernel, *P, Locus, 2, 17);
  }
  // Float literals (0.2, 2.0) go through the printer's %g path.
  if (auto P = parse("fig9", workloads::stencilSource(
                                 workloads::StencilKind::Jacobi2D, 4, 16)))
    Record("fig9", *P, workloads::stencilLocusFig9(0, 2), 2, 9);
  const std::map<std::string, std::string> Pinned = {
      {"fig7#0", "77d0b8a0cfd20c207c082d8d0f54d45d"},
      {"fig7#1", "35dfefa2c5214fc0717788e451c68f57"},
      {"fig7#2", "86b0b4d200826de7f4d48036e4b6af13"},
      {"fig9#0", "ff07f115a685b1e33ca5732dcc0a04fd"},
      {"gemver#0", "6ae85fa61b4e72d6998d16897cb6837a"},
      {"gemver#1", "6ea74847a9d5ed48f14e9d7c644f78f4"},
      {"syrk#0", "9543d89d4bb334d7f2e91173d334b9cb"},
      {"syrk#1", "1c62d951a19b4abbe0b06b93fa3aaffc"},
  };
  EXPECT_EQ(Got, Pinned);
}

} // namespace
} // namespace locus
