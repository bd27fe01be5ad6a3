//===- ConstParityTest.cpp - Golden constant-bound facts of the analyses -===//
//
// Region discovery, the bounds verifier, dependence analysis and the unroll
// modules all read loops' constant bounds. This suite records what they
// derive from them on a fixed corpus — the eight examples/polybench kernels
// and two seeded loopCorpus() draws (discovered with their region pragmas
// stripped) — and compares it with
// tests/data/const_golden.txt line by line:
//
//   - discoverRegions(): one line per candidate (verdict, reason, depth,
//     trip product and exactness, footprint, hotness bits);
//   - checkBounds(): the rendered report;
//   - DependenceInfo::compute() on every loop: the direction vectors;
//   - applyUnroll / applyUnrollAndJam at factors 2-4 on every loop with
//     constant bounds and a positive step: status, message and an FNV-1a
//     hash plus the length of the printed program.
//
// tests/Golden.h says how to regenerate the golden file.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "TestFiles.h"

#include "src/analysis/Dependence.h"
#include "src/analysis/RangeAnalysis.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/support/Hashing.h"
#include "src/transform/Unroll.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace locus {
namespace {

using Lines = std::vector<std::pair<std::string, std::string>>;

std::string hexBits(double D) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%a", D);
  return Buf;
}

const char *statusName(transform::TransformStatus S) {
  switch (S) {
  case transform::TransformStatus::Success:
    return "success";
  case transform::TransformStatus::NoOp:
    return "noop";
  case transform::TransformStatus::Illegal:
    return "illegal";
  case transform::TransformStatus::Error:
    return "error";
  }
  return "?";
}

void recordDiscovery(const std::string &Key, const cir::Program &P,
                     Lines &Out) {
  analysis::DiscoveryReport R = analysis::discoverRegions(P);
  for (size_t I = 0; I < R.Candidates.size(); ++I) {
    const analysis::NestCandidate &C = R.Candidates[I];
    std::ostringstream Line;
    Line << C.ScanIndex << " " << C.Name << " " << C.LoopVar << "@"
         << C.Loc.Line << ":" << C.Loc.Col << " depth " << C.Depth
         << (C.Perfect ? " perfect" : " imperfect") << " "
         << analysis::candidateVerdictName(C.Verdict) << " deps "
         << C.DepAvailable << " trip " << C.TripProduct
         << (C.TripExact ? " exact" : " estimate") << " footprint "
         << C.FootprintBytes << " hotness " << hexBits(C.Hotness) << " why "
         << (C.Why.Message.empty() ? std::string("-") : C.Why.render());
    Out.emplace_back(Key + "/discover/" + std::to_string(I),
                     test::escapeField(Line.str()));
  }
  Out.emplace_back(Key + "/discover/scanned",
                   std::to_string(R.NumScanned) + " annotated " +
                       std::to_string(R.NumAlreadyAnnotated));
}

void recordDependences(const std::string &Key, cir::Program &P, Lines &Out) {
  for (const cir::LoopEntry &L : cir::listLoops(*P.Body)) {
    std::optional<analysis::DependenceInfo> Info =
        analysis::DependenceInfo::compute(*L.Loop);
    std::ostringstream Line;
    if (!Info) {
      Line << "unavailable";
    } else {
      for (const analysis::Dependence &D : Info->deps()) {
        Line << D.SrcStmt << "->" << D.DstStmt << " " << D.Array << " "
             << static_cast<int>(D.Kind) << (D.IsScalar ? "s" : "") << " ";
        for (char C : D.Dirs)
          Line << C;
        Line << ";";
      }
    }
    Out.emplace_back(Key + "/deps/" + L.Path, test::escapeField(Line.str()));
  }
}

void recordUnrolls(const std::string &Key, const cir::Program &P, Lines &Out) {
  auto Probe = P.clone();
  for (const cir::LoopEntry &L : cir::listLoops(*Probe->Body)) {
    if (!cir::evalConstInt(*L.Loop->Init) ||
        !cir::evalConstInt(*L.Loop->Bound) || L.Loop->Step <= 0)
      continue;
    for (int64_t Factor = 2; Factor <= 4; ++Factor) {
      for (bool Jam : {false, true}) {
        auto Copy = P.clone();
        transform::TransformContext Ctx;
        Ctx.Prog = Copy.get();
        transform::TransformResult R;
        if (Jam) {
          transform::UnrollAndJamArgs Args;
          Args.LoopPath = L.Path;
          Args.Factor = Factor;
          R = transform::applyUnrollAndJam(*Copy->Body, Args, Ctx);
        } else {
          transform::UnrollArgs Args;
          Args.LoopPath = L.Path;
          Args.Factor = Factor;
          R = transform::applyUnroll(*Copy->Body, Args, Ctx);
        }
        std::string Text = cir::printProgram(*Copy);
        Out.emplace_back(Key + (Jam ? "/uaj/" : "/unroll/") + L.Path + "/f" +
                             std::to_string(Factor),
                         std::string(statusName(R.Status)) + " " +
                             test::escapeField(R.Message) + " " +
                             std::to_string(fnv1a(Text)) + " " +
                             std::to_string(Text.size()));
      }
    }
  }
}

void recordProgram(const std::string &Key, const std::string &Source,
                   Lines &Out) {
  auto Parsed = cir::parseProgram(Source);
  ASSERT_TRUE(Parsed.ok()) << Key << ": " << Parsed.message();
  cir::Program &P = **Parsed;
  // Discovery skips annotated regions, so it sees the corpus unannotated.
  auto Bare = cir::parseProgram(analysis::stripLocusRegionPragmas(Source));
  ASSERT_TRUE(Bare.ok()) << Key << ": " << Bare.message();
  recordDiscovery(Key, **Bare, Out);
  Out.emplace_back(Key + "/bounds",
                   test::escapeField(analysis::checkBounds(P).render()));
  recordDependences(Key, P, Out);
  recordUnrolls(Key, P, Out);
}

Lines buildLines() {
  Lines Out;
  for (const std::string &Kernel : workloads::polybenchKernels())
    recordProgram("polybench/" + Kernel,
                  test::slurp(LOCUS_TEST_DATA_DIR "/../../examples/polybench/" +
                              Kernel + ".c"),
                  Out);
  for (uint64_t Seed : {3, 13})
    for (const workloads::CorpusEntry &E : workloads::loopCorpus(0.05, Seed))
      recordProgram("corpus" + std::to_string(Seed) + "/" + E.Suite + "/" +
                        E.Name,
                    E.Source, Out);
  return Out;
}

TEST(ConstParity, MatchesGolden) {
  Lines Got = buildLines();
  ASSERT_GT(Got.size(), 1000u);
  std::vector<std::string> Text;
  for (const auto &[Key, Value] : Got)
    Text.push_back(Key + "\t" + Value);
  test::expectGolden("const_golden.txt", Text);
}

} // namespace
} // namespace locus
