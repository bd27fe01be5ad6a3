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
// On every innermost loop of the same corpus, the SIMD gate's query,
// DependenceInfo::carriedByRoot(), must answer as compute() and the AST
// stride scan it replaced do.
//
// It also pins makeCacheKey(printProgram(V)) for a few seeded variants, so
// a printer or transform change that moves a byte invalidates no
// locus-evalcache store.
//
// tests/Golden.h says how to regenerate the golden file.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "TestFiles.h"
#include "TestPrograms.h"

#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/cir/AstUtils.h"
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
#include <functional>
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
            const std::string &LocusSrc, int Count, uint64_t Seed,
            const std::map<std::string, std::string> &Snippets = {}) {
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
  TCtx.Snippets = Snippets;
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

/// Calls Fn(Key, Program, Point) on every program of the corpus, in a fixed
/// order. Point is the serialized point of a materialized variant, and
/// null for a source program.
using CorpusFn = std::function<void(const std::string &, cir::Program &,
                                    const std::string *)>;

void forEachVariant(const std::string &Key, const cir::Program &Base,
                    const std::string &LocusSrc, int Count, uint64_t Seed,
                    const CorpusFn &Fn) {
  int I = 0;
  for (auto &[Point, V] : materialize(Key, Base, LocusSrc, Count, Seed))
    Fn(Key + "#" + std::to_string(I++), *V, &Point);
}

void forEachCorpusProgram(const CorpusFn &Fn) {
  for (const std::string &Kernel : workloads::polybenchKernels())
    if (auto P = parse(Kernel, test::slurp(LOCUS_TEST_DATA_DIR
                                           "/../../examples/polybench/" +
                                           Kernel + ".c")))
      Fn("polybench/" + Kernel, *P, nullptr);
  for (uint64_t Seed : {3, 13})
    for (const workloads::CorpusEntry &E : workloads::loopCorpus(0.05, Seed))
      if (auto P = parse(E.Name, E.Source))
        Fn("corpus" + std::to_string(Seed) + "/" + E.Suite + "/" + E.Name, *P,
           nullptr);

  if (auto P = parse("fig7", workloads::dgemmSource(16, 16, 16)))
    forEachVariant("fig7", *P, workloads::dgemmLocusFig7(16), 24, 7, Fn);
  if (auto P = parse("fig5", workloads::dgemmSource(12, 12, 12)))
    forEachVariant("fig5", *P, workloads::dgemmLocusFig5(), 8, 5, Fn);
  std::vector<workloads::CorpusEntry> Nests = workloads::loopCorpus(0.05, 13);
  for (size_t I = 0; I < Nests.size(); I += 5)
    if (auto P = parse(Nests[I].Name, Nests[I].Source))
      forEachVariant("fig13/" + Nests[I].Name, *P,
                     workloads::fig13GenericProgram(), 4, 13, Fn);
  for (const std::string &Kernel : workloads::polybenchKernels()) {
    auto [P, Locus] = discoveredKernel(Kernel);
    if (P)
      forEachVariant("discover/" + Kernel, *P, Locus, 6, 17, Fn);
  }
}

Lines buildLines() {
  Lines Out;
  forEachCorpusProgram([&](const std::string &Key, cir::Program &P,
                           const std::string *Point) {
    if (Point)
      Out.emplace_back(Key + "/point", *Point);
    recordLoops(Key, P, Out);
  });
  return Out;
}

/// The SIMD gate's stride verdict as the evaluator judged it before the
/// dependence query answered it: every array reference of the body, its
/// subscripts put in affine form one by one.
bool astUnitStride(const cir::ForStmt &For) {
  bool Unit = true;
  cir::forEachStmt(*For.Body, [&](const cir::Stmt &S) {
    cir::forEachExpr(S, [&](const cir::ExprPtr &E) {
      cir::forEachSubExpr(*E, [&](const cir::Expr &Sub) {
        const auto *A = cir::dyn_cast<cir::ArrayRef>(&Sub);
        if (!A)
          return true;
        for (size_t I = 0; I < A->Indices.size(); ++I) {
          std::optional<analysis::AffineExpr> Aff =
              analysis::toAffine(*A->Indices[I]);
          int64_t Coeff = Aff ? Aff->coeff(For.Var) : 1;
          if (!Aff && cir::referencesVar(*A->Indices[I], For.Var))
            Unit = false;
          else if (I + 1 == A->Indices.size() ? Coeff != 0 && Coeff != 1
                                              : Coeff != 0)
            Unit = false;
        }
        return false;
      });
    });
  });
  return Unit;
}

/// Innermost loops whose only carried dependences go through a scalar: a
/// reduction, a temporary and a compound-assigned accumulator.
const char *const ScalarCarriedSource = R"(
double A[16][16];
double B[16][16];
int main() {
  int i, j;
  double s, t;
  s = 0.0;
  for (i = 0; i < 16; i++)
    for (j = 0; j < 16; j++)
      s = s + A[i][j];
  for (i = 0; i < 16; i++)
    for (j = 0; j < 16; j++) {
      t = A[i][j] * 2.0;
      B[i][j] = t;
    }
  for (i = 0; i < 16; i++) {
    double u = 0.0;
    for (j = 0; j < 16; j++)
      u += A[i][j];
    B[i][0] = u;
  }
}
)";

/// carriedByRoot() on every innermost loop of \p P against compute() and
/// the AST stride scan; counts each verdict in \p Seen.
void checkGate(const std::string &Key, cir::Program &P,
               std::map<std::string, int> &Seen) {
  using analysis::DependenceInfo;
  for (const cir::LoopEntry &L : cir::listInnerLoops(*P.Body)) {
    std::optional<DependenceInfo> Info = DependenceInfo::compute(*L.Loop);
    DependenceInfo::RootCarry Want = DependenceInfo::RootCarry::Unavailable;
    if (Info) {
      Want = DependenceInfo::RootCarry::Independent;
      for (const analysis::Dependence &D : Info->deps())
        if (D.mayBeCarriedBy(0))
          Want = DependenceInfo::RootCarry::Carried;
    }
    DependenceInfo::RootVerdict Got = DependenceInfo::carriedByRoot(*L.Loop);
    EXPECT_EQ(static_cast<int>(Got.Carry), static_cast<int>(Want))
        << Key << "/" << L.Path;
    if (Got.Carry != DependenceInfo::RootCarry::Independent) {
      ++Seen[Got.Carry == DependenceInfo::RootCarry::Carried ? "carried"
                                                              : "unavailable"];
      continue;
    }
    bool Unit = astUnitStride(*L.Loop);
    EXPECT_EQ(Got.UnitStride, Unit) << Key << "/" << L.Path;
    ++Seen[Unit ? "independent unit" : "independent strided"];
  }
}

// The evaluator's SIMD gate asks carriedByRoot() instead of computing every
// dependence: on every innermost loop of the corpus, and of the SIMD-model
// programs, it must give compute()'s availability and carried verdict, and
// the stride verdict the AST scan gives.
TEST(DepsParity, SimdGateQueryMatchesCompute) {
  std::map<std::string, int> Seen;
  forEachCorpusProgram([&](const std::string &Key, cir::Program &P,
                           const std::string *) { checkGate(Key, P, Seen); });
  for (const std::string Pragma : test::SimdPragmas)
    for (const std::string Shape : test::SimdShapes)
      if (auto P = parse(Shape, test::vectorSource(Pragma, Shape)))
        checkGate("simd." + Shape + "." + Pragma, *P, Seen);
  if (auto P = parse("scalars", ScalarCarriedSource))
    checkGate("scalars", *P, Seen);
  for (const char *Kind : {"carried", "unavailable", "independent unit",
                           "independent strided"})
    EXPECT_GT(Seen[Kind], 0) << Kind;
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

/// Fusion and distribution inputs of tests/TransformTest.cpp.
const char *const FusionSource = R"(
#define N 16
double A[N];
double B[N];
double C[N];
int main() {
  int i;
#pragma @Locus block=body
  for (i = 0; i < N; i++)
    A[i] = B[i] * 2.0;
  for (i = 0; i < N; i++)
    C[i] = A[i] + 1.0;
#pragma @Locus endblock
}
)";

const char *const DistributionSource = R"(
#define N 16
double A[N];
double B[N];
double X[N];
double Y[N];
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++) {
    A[i] = X[i] * 2.0;
    B[i] = Y[i] + 3.0;
  }
}
)";

/// syrk with its update nest marked as region "scop" for Fig. 13.
std::string syrkScop() {
  std::string Src = workloads::polybenchSource("syrk", 16);
  size_t Nest = Src.rfind("  for (i", Src.find("for (k"));
  Src.insert(Nest, "#pragma @Locus loop=scop\n");
  return Src;
}

// Keys recorded before the printer wrote into one string buffer; a
// persistent eval cache written by either printer must hit with the other.
// The Kripke, Fig. 13 syrk, fusion and distribution keys were recorded
// before the transform modules shared one expression rewriter, loop lister
// and loop-chain builder; they pin the variants those modules print.
TEST(DepsParity, PinnedVariantCacheKeys) {
  std::map<std::string, std::string> Got;
  auto Record = [&](const std::string &Key, const cir::Program &Base,
                    const std::string &LocusSrc, int Count, uint64_t Seed,
                    const std::map<std::string, std::string> &Snippets = {}) {
    int I = 0;
    for (auto &[Point, V] :
         materialize(Key, Base, LocusSrc, Count, Seed, Snippets))
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
  // Fig. 11: Altdesc, Interchange, LICM, ScalarRepl and OMPFor.
  workloads::KripkeConfig KC;
  KC.NumZones = 16;
  KC.NumGroups = 4;
  KC.NumMoments = 3;
  for (const std::string Kernel : {"Scattering", "LTimes"})
    if (auto P = parse(Kernel, workloads::kripkeKernelSource(KC, Kernel)))
      Record("kripke/" + Kernel, *P, workloads::kripkeLocusFig11(Kernel), 6,
             11, workloads::kripkeSnippets(KC, Kernel));
  // Fig. 13 on syrk: interchange and its single-loop tiling arm.
  if (auto P = parse("syrk/fig13", syrkScop()))
    Record("syrk/fig13", *P, workloads::fig13GenericProgram(), 6, 13);
  if (auto P = parse("fusion", FusionSource))
    Record("fusion", *P, "CodeReg body { Pips.Fusion(); }", 1, 1);
  if (auto P = parse("distribution", DistributionSource))
    Record("distribution", *P, "CodeReg r { RoseLocus.Distribute(); }", 1, 1);
  const std::map<std::string, std::string> Pinned = {
      {"distribution#0", "14bb878f4afa9a66bb0e57697bc94a84"},
      {"fig7#0", "77d0b8a0cfd20c207c082d8d0f54d45d"},
      {"fig7#1", "35dfefa2c5214fc0717788e451c68f57"},
      {"fig7#2", "86b0b4d200826de7f4d48036e4b6af13"},
      {"fig9#0", "ff07f115a685b1e33ca5732dcc0a04fd"},
      {"fusion#0", "9116880b47e1789e5171ba5593faad75"},
      {"gemver#0", "6ae85fa61b4e72d6998d16897cb6837a"},
      {"gemver#1", "6ea74847a9d5ed48f14e9d7c644f78f4"},
      {"kripke/LTimes#0", "61a02fadd798447e27ad8888ca55b8ff"},
      {"kripke/LTimes#1", "15ac9ed91e27aee4c615a2b4f4ed74a7"},
      {"kripke/LTimes#2", "8a017bd1d673ea5ecf327081104cc708"},
      {"kripke/Scattering#0", "da88879b379fcc580bcee26f1a571bc2"},
      {"kripke/Scattering#1", "5b14f2fe89f1ea18ec0cde90fd025df6"},
      {"kripke/Scattering#2", "6a9bb9f029d052589eada9ef6e84c4d2"},
      {"syrk#0", "9543d89d4bb334d7f2e91173d334b9cb"},
      {"syrk#1", "1c62d951a19b4abbe0b06b93fa3aaffc"},
      {"syrk/fig13#0", "9d406cbe81a3f11a63c6d0f3d6057d1d"},
      {"syrk/fig13#1", "b92c9a022c404f86753c699fe6d1f712"},
      {"syrk/fig13#2", "3dd53c003edc75b5dead7d75e480ad5e"},
      {"syrk/fig13#3", "5a131b1d2a74ce16cbfc5b083fa6f30e"},
      {"syrk/fig13#4", "f72554e3b185dc588402c555326bc458"},
      {"syrk/fig13#5", "5a131b1d2a74ce16cbfc5b083fa6f30e"},
  };
  EXPECT_EQ(Got, Pinned);
}

} // namespace
} // namespace locus
