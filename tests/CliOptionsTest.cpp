//===- CliOptionsTest.cpp - locus_cli option table tests -----------------===//
//
// The option table is the CLI's single source of truth: every flag parses
// exactly in the modes it declares, malformed values are refused naming the
// flag, and a serve-mode coordinator's worker argv rebuilds the identical
// objective. The last group runs the built locus_cli binary itself.
//
//===----------------------------------------------------------------------===//

#include "TestFiles.h"

#include "src/cir/Parser.h"
#include "src/driver/CliOptions.h"
#include "src/locus/LocusParser.h"
#include "src/search/PointCodec.h"
#include "src/support/Subprocess.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sys/stat.h>

namespace locus {
namespace {

using driver::CliFlag;
using driver::CliMode;
using driver::CliOptions;

Expected<CliOptions> parse(const std::vector<std::string> &Args) {
  std::vector<const char *> Argv = {"locus_cli"};
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  return driver::parseCli(static_cast<int>(Argv.size()), Argv.data());
}

/// A well-formed value for a flag's placeholder.
std::string sampleValue(const CliFlag &F) {
  std::string_view P = F.Value;
  if (size_t Bar = P.find('|'); Bar != std::string_view::npos)
    return std::string(P.substr(0, Bar)); // first of the alternatives
  if (P == "N")
    return "3";
  if (P == "SECS")
    return "2.5";
  if (P == "X")
    return "1e-3";
  if (P == "NAME")
    return "random";
  return "some-" + std::string(P); // FILE, DIR, PATH, ID
}

std::vector<std::string> spelled(const CliFlag &F) {
  std::vector<std::string> Out = {F.Name};
  if (F.Value)
    Out.push_back(sampleValue(F));
  return Out;
}

/// The smallest valid command line of mode \p M, without the selector when
/// \p Selector is false.
std::vector<std::string> baseArgs(CliMode M, bool Selector) {
  std::vector<std::string> Args;
  auto Add = [&Args](const CliFlag &F) {
    std::vector<std::string> S = spelled(F);
    Args.insert(Args.end(), S.begin(), S.end());
  };
  if (Selector && M != CliMode::Search)
    for (const CliFlag &F : driver::cliFlags())
      if (F.Selects == M) {
        Add(F);
        break;
      }
  for (const CliFlag &F : driver::cliFlags())
    if (F.RequiredIn & driver::modeBit(M))
      Add(F);
  if (M == CliMode::Dump)
    return Args;
  if (M != CliMode::Discover && M != CliMode::BoundsCheck)
    Args.push_back("prog.locus");
  Args.push_back("kernel.c");
  return Args;
}

TEST(CliOptions, EveryFlagParsesExactlyInItsModes) {
  for (const CliFlag &F : driver::cliFlags()) {
    for (int I = 0; I < driver::NumCliModes; ++I) {
      CliMode M = static_cast<CliMode>(I);
      std::vector<std::string> Args = baseArgs(M, F.Selects != M);
      std::vector<std::string> S = spelled(F);
      Args.insert(Args.end(), S.begin(), S.end());
      auto O = parse(Args);
      bool Applies = F.Modes & driver::modeBit(M);
      bool Help = O.ok() && O->Help;
      bool Accepted = O.ok() && (Help || O->Mode == M);
      EXPECT_EQ(Accepted, Applies)
          << F.Name << " in " << driver::cliModeName(M) << " mode: "
          << (O.ok() ? "parsed as " + std::string(driver::cliModeName(O->Mode))
                     : O.message());
      if (!Applies && !O.ok() && F.Selects == CliMode::Search) {
        EXPECT_NE(O.message().find(F.Name), std::string::npos) << O.message();
      }
    }
  }
}

TEST(CliOptions, MalformedValuesAreRefusedNamingTheFlag) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> Cases =
      {
          {{"--budget", "abc"}, "--budget"},
          {{"--budget"}, "--budget"},
          {{"--budget", "12x"}, "--budget"},
          {{"--budget", "99999999999"}, "--budget"},
          {{"--budget", "0"}, "--budget"},
          {{"--machine", "bogus"}, "--machine"},
          {{"--jobs", "0"}, "--jobs"},
          {{"--cores", "0"}, "--cores"},
          {{"--seed", "-1"}, "--seed"},
          {{"--checksum-rtol", "nan"}, "--checksum-rtol"},
          {{"--native-timeout", "0"}, "--native-timeout"},
          {{"--journal-sync", "sometimes"}, "--journal-sync"},
          {{"--journal-sync", "flush"}, "--journal-sync"},
          {{"--search", "annealing"}, "--search"},
          {{"--journal", "--resume"}, "--journal"},
          {{"--point", ""}, "--point"},
          {{"--eval-cache"}, "--eval-cache"},
          {{"--worker", "--queue-dir", "q", "--worker-id", ""}, "--worker-id"},
      };
  for (const auto &[Flag, Name] : Cases) {
    std::vector<std::string> Args = {"prog.locus", "kernel.c"};
    Args.insert(Args.end(), Flag.begin(), Flag.end());
    auto O = parse(Args);
    ASSERT_FALSE(O.ok()) << Name;
    EXPECT_NE(O.message().find(Name), std::string::npos) << O.message();
  }
}

TEST(CliOptions, InapplicableFlagsAreRefused) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> Cases =
      {
          {{"--discover", "x.c", "--tune", "--serve", "--queue-dir", "q",
            "--workers", "2"},
           "--serve"},
          {{"--bounds-check", "x.c", "--budget", "5"}, "--budget"},
          {{"p.locus", "x.c", "--worker", "--queue-dir", "q", "--jobs", "2"},
           "--jobs"},
          {{"p.locus", "x.c", "--serve", "--worker", "--queue-dir", "q"},
           "--serve"},
          {{"p.locus", "x.c", "--serve"}, "--queue-dir"},
          {{"--journal-dump", "a", "--queue-dump", "b"}, "--queue-dump"},
      };
  for (const auto &[Args, Name] : Cases) {
    auto O = parse(Args);
    ASSERT_FALSE(O.ok()) << Name;
    EXPECT_NE(O.message().find(Name), std::string::npos) << O.message();
  }
}

TEST(CliOptions, DefaultsAndFleetSizes) {
  auto O = parse({"p.locus", "x.c"});
  ASSERT_TRUE(O.ok()) << O.message();
  EXPECT_EQ(O->Mode, CliMode::Search);
  EXPECT_EQ(O->ProgramPath, "p.locus");
  EXPECT_EQ(O->SourcePath, "x.c");
  EXPECT_EQ(O->Opts.MaxEvaluations, 100);
  EXPECT_TRUE(O->Opts.AllowSnippetFiles);

  auto One = parse({"p.locus", "x.c", "--serve", "--queue-dir", "q"});
  ASSERT_TRUE(One.ok()) << One.message();
  EXPECT_EQ(One->Opts.Serve.Workers, 1);
  // Zero managed workers is valid: the operator brings their own fleet.
  auto Zero = parse({"p.locus", "x.c", "--serve", "--queue-dir", "q",
                     "--workers", "0"});
  ASSERT_TRUE(Zero.ok()) << Zero.message();
  EXPECT_EQ(Zero->Opts.Serve.Workers, 0);
}

TEST(CliOptions, WorkerArgvRebuildsTheCoordinatorsObjective) {
  auto C = parse({"p.locus",         "x.c",
                  "--serve",         "--queue-dir",
                  "q",               "--workers",
                  "3",               "--budget",
                  "7",               "--seed",
                  "9",               "--jobs",
                  "2",               "--journal",
                  "j.rlog",          "--machine",
                  "tiny",            "--cores",
                  "3",               "--native-metric",
                  "--native-timeout", "2.5",
                  "--keep-workdirs", "--checksum-rtol",
                  "1e-3",            "--trust-parallel",
                  "--verify-each",   "--no-eval-cache",
                  "--cache-dir",     "cache",
                  "--cache-readonly"});
  ASSERT_TRUE(C.ok()) << C.message();
  std::vector<std::string> Argv = driver::workerArgv(*C, "exe");
  ASSERT_GE(Argv.size(), 3u);
  EXPECT_EQ(Argv[0], "exe");
  auto W = parse(std::vector<std::string>(Argv.begin() + 1, Argv.end()));
  ASSERT_TRUE(W.ok()) << W.message();
  ASSERT_EQ(W->Mode, CliMode::Worker);

  const driver::OrchestratorOptions &A = C->Opts, &B = W->Opts;
  EXPECT_EQ(W->ProgramPath, "p.locus");
  EXPECT_EQ(W->SourcePath, "x.c");
  EXPECT_EQ(B.Serve.QueueDir, "q");
  EXPECT_EQ(B.Eval.Machine.Levels.size(), A.Eval.Machine.Levels.size());
  EXPECT_EQ(B.Eval.Machine.MemLatency, A.Eval.Machine.MemLatency);
  EXPECT_EQ(B.Eval.Machine.Cores, 3);
  EXPECT_TRUE(B.NativeMetric);
  EXPECT_EQ(B.Native.RunTimeoutSeconds, 2.5);
  EXPECT_TRUE(B.Native.KeepWorkDir);
  EXPECT_EQ(B.ChecksumRtol, 1e-3);
  EXPECT_TRUE(B.TrustParallel);
  EXPECT_TRUE(B.VerifyEach);
  EXPECT_FALSE(B.UseEvalCache);
  EXPECT_EQ(B.CacheDir, "cache");
  EXPECT_TRUE(B.CacheReadOnly);
  // Search-steering flags stay with the coordinator.
  for (const std::string &Tok : Argv)
    for (const char *Kept : {"--budget", "--seed", "--jobs", "--journal",
                             "--workers", "--serve"})
      EXPECT_NE(Tok, Kept);
}

TEST(CliOptions, HelpStopsParsing) {
  auto O = parse({"--help", "--no-such-flag"});
  ASSERT_TRUE(O.ok()) << O.message();
  EXPECT_TRUE(O->Help);
  std::string Help = driver::cliHelp("locus_cli");
  for (const CliFlag &F : driver::cliFlags())
    EXPECT_NE(Help.find(F.Name), std::string::npos) << F.Name;
}

//===----------------------------------------------------------------------===//
// The built binary
//===----------------------------------------------------------------------===//

support::SubprocessResult runCli(const std::vector<std::string> &Args,
                                 const std::string &WorkDir = "") {
  support::SubprocessOptions Opts;
  Opts.Argv.push_back(LOCUS_CLI);
  Opts.Argv.insert(Opts.Argv.end(), Args.begin(), Args.end());
  Opts.WorkDir = WorkDir;
  Opts.Limits.WallClockSeconds = 120;
  return support::runSubprocess(Opts);
}

bool writeText(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  return static_cast<bool>(Out);
}

TEST(CliBinary, MisparsesExitTwoNamingTheFlag) {
  support::TempDir Dir("locus-cli-");
  ASSERT_TRUE(Dir.valid());
  const std::vector<std::pair<std::vector<std::string>, std::string>> Cases =
      {
          {{"p.locus", "k.c", "--budget", "abc"}, "--budget"},
          {{"p.locus", "k.c", "--machine", "bogus"}, "--machine"},
          {{"p.locus", "k.c", "--budget"}, "--budget"},
          {{"--discover", "k.c", "--tune", "--serve", "--queue-dir", "Q",
            "--workers", "2"},
           "--serve"},
      };
  for (const auto &[Args, Name] : Cases) {
    support::SubprocessResult R = runCli(Args, Dir.path());
    ASSERT_EQ(R.Exit, support::SpawnExit::Exited) << R.describe();
    EXPECT_EQ(R.ExitCode, 2) << Name << ": " << R.Stderr;
    EXPECT_NE(R.Stderr.find(Name), std::string::npos) << R.Stderr;
  }
  struct stat St;
  EXPECT_NE(::stat((Dir.path() + "/Q").c_str(), &St), 0)
      << "a refused serve run must not create its queue directory";
}

// Subscript constants at the edge of int64_t once trapped the dependence
// tests (SIGFPE from INT64_MIN % -1) and killed discovery.
TEST(CliBinary, DiscoverSurvivesOverflowingSubscriptConstants) {
  support::SubprocessResult R =
      runCli({"--discover", LOCUS_TEST_DATA_DIR "/extreme_constants.c"});
  ASSERT_TRUE(R.ok()) << R.describe() << "\n" << R.Stderr;
  EXPECT_NE(R.Stdout.find("1 annotatable"), std::string::npos) << R.Stdout;
}

TEST(CliBinary, HelpListsEveryFlag) {
  support::SubprocessResult R = runCli({"--help"});
  ASSERT_TRUE(R.ok()) << R.describe() << "\n" << R.Stderr;
  for (const CliFlag &F : driver::cliFlags())
    EXPECT_NE(R.Stdout.find(F.Name), std::string::npos) << F.Name;
}

/// The Tiling2D arm of the Fig. 5 program (the CI's tuning-service smoke
/// program): two tile sizes, both always needed.
const char *const Tiling2DProgram = R"(
import "RoseLocus";
OptSeq Tiling2D() {
  tileI = poweroftwo(2..32);
  tileJ = poweroftwo(2..32);
  RoseLocus.Tiling(loop="0", factor=[tileI, tileJ]);
  return "2D";
}
CodeReg matmul {
  tiledim = 4;
  tiletype = Tiling2D();
  if (tiletype == "2D") {
    RoseLocus.Unroll(loop=innermost, factor=tiledim);
  }
}
)";

// The README's Fig. 5 run: the pool line's denominator is the objective
// calls, not every assessed point; the projection hits never reach the pool.
TEST(CliBinary, PoolLineCountsObjectiveCalls) {
  support::TempDir Dir("locus-cli-");
  ASSERT_TRUE(Dir.valid());
  ASSERT_TRUE(writeText(Dir.path() + "/dgemm.c",
                        workloads::dgemmSource(16, 16, 16)));
  ASSERT_TRUE(
      writeText(Dir.path() + "/fig5.locus", workloads::dgemmLocusFig5()));
  support::SubprocessResult R =
      runCli({"fig5.locus", "dgemm.c", "--search", "random", "--jobs", "4",
              "--budget", "48"},
             Dir.path());
  ASSERT_TRUE(R.ok()) << R.describe() << "\n" << R.Stderr;
  EXPECT_NE(R.Stdout.find("assessed 48 variants (0 invalid, 96 duplicates, "
                          "22 projection hits)"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("pool: 4 workers, 14 batches (widest 3), 20 of 26 "
                          "assessments dispatched in parallel"),
            std::string::npos)
      << R.Stdout;
}

/// --point applies the pinned recipe directly: no search runs, so nothing
/// reaches the journal, and an under-pinned point is a located error.
TEST(CliBinary, PointFileAppliesWithoutSearching) {
  support::TempDir Dir("locus-cli-");
  ASSERT_TRUE(Dir.valid());
  const std::string Src = workloads::dgemmSource(24, 24, 24);
  const std::string Prog = Tiling2DProgram;
  ASSERT_TRUE(writeText(Dir.path() + "/kernel.c", Src));
  ASSERT_TRUE(writeText(Dir.path() + "/prog.locus", Prog));

  auto LP = lang::parseLocusProgram(Prog);
  auto CP = cir::parseProgram(Src);
  ASSERT_TRUE(LP.ok()) << LP.message();
  ASSERT_TRUE(CP.ok()) << CP.message();
  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 2;
  auto Found = driver::Orchestrator(**LP, **CP, Opts).runSearch();
  ASSERT_TRUE(Found.ok()) << Found.message();
  ASSERT_TRUE(Found->Search.Found);
  const search::Point &Best = Found->Search.Best;
  ASSERT_EQ(Best.size(), 2u);
  ASSERT_TRUE(writeText(Dir.path() + "/best.pt", search::serializePoint(Best)));

  support::SubprocessResult R =
      runCli({"prog.locus", "kernel.c", "--machine", "tiny", "--point",
              "best.pt", "--journal", "j.rlog"},
             Dir.path());
  ASSERT_TRUE(R.ok()) << R.describe() << "\n" << R.Stderr;
  EXPECT_NE(R.Stdout.find("direct variant:"), std::string::npos) << R.Stdout;
  EXPECT_EQ(R.Stdout.find("assessed"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(test::slurp(Dir.path() + "/j.rlog").empty());

  search::Point Partial;
  Best.forEach([&Partial](const std::string &Id, const search::PointValue &V) {
    if (Partial.empty())
      Partial.set(Id, V);
  });
  ASSERT_TRUE(
      writeText(Dir.path() + "/partial.pt", search::serializePoint(Partial)));
  R = runCli({"prog.locus", "kernel.c", "--machine", "tiny", "--point",
              "partial.pt"},
             Dir.path());
  ASSERT_EQ(R.Exit, support::SpawnExit::Exited) << R.describe();
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Stderr.find("does not pin"), std::string::npos) << R.Stderr;
}

} // namespace
} // namespace locus
