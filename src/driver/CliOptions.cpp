//===- CliOptions.cpp - The locus_cli option table ------------------------===//

#include "src/driver/CliOptions.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace locus {
namespace driver {

namespace {

using M = CliMode;
using V = std::string_view;

constexpr CliModeSet SearchOnly = modeBit(M::Search);
constexpr CliModeSet ServeOnly = modeBit(M::Serve);
constexpr CliModeSet WorkerOnly = modeBit(M::Worker);
constexpr CliModeSet DiscoverOnly = modeBit(M::Discover);
constexpr CliModeSet DumpOnly = modeBit(M::Dump);
/// Modes that end with a best variant: search/direct and serve.
constexpr CliModeSet Result = SearchOnly | ServeOnly;
/// Modes that run a search: search, serve and discover --tune.
constexpr CliModeSet Run = Result | DiscoverOnly;
/// Modes that build the variant objective. A worker must build exactly the
/// coordinator's, so these are the flags a coordinator forwards.
constexpr CliModeSet Objective = Run | WorkerOnly;
constexpr CliModeSet AllModes = (CliModeSet(1) << NumCliModes) - 1;

struct ModeInfo {
  const char *Name;
  const char *Operands;
  size_t NumOperands;
};
constexpr ModeInfo Modes[NumCliModes] = {
    {"search", "PROGRAM.locus SOURCE.c", 2},
    {"lint", "PROGRAM.locus SOURCE.c", 2},
    {"race-check", "PROGRAM.locus SOURCE.c", 2},
    {"serve", "PROGRAM.locus SOURCE.c", 2},
    {"worker", "PROGRAM.locus SOURCE.c", 2},
    {"discover", "SOURCE.c", 1},
    {"bounds-check", "SOURCE.c", 1},
    {"dump", "", 0},
};

/// Whole-token integer parse with a lower bound: like search/PointCodec,
/// std::from_chars must consume every character.
template <typename T> Status atLeast(V Text, T Min, T &Out) {
  T X{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), X);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size() || X < Min)
    return Status::error("wants an integer >= " + std::to_string(Min) +
                         ", got '" + std::string(Text) + "'");
  Out = X;
  return Status();
}

Status positive(V Text, double &Out) {
  double X = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), X);
  if (Ec != std::errc() || Ptr != Text.data() + Text.size() ||
      !std::isfinite(X) || X <= 0)
    return Status::error("wants a positive number, got '" + std::string(Text) +
                         "'");
  Out = X;
  return Status();
}

Status dump(CliOptions &O, V Path, bool Queue) {
  if (!O.DumpPath.empty())
    return Status::error("only one record log can be dumped per run");
  O.DumpPath = Path;
  O.DumpQueue = Queue;
  return Status();
}

const CliFlag Flags[] = {
    // Search and direct workflows.
    {"--direct", nullptr, SearchOnly,
     "apply the program as written (no search constructs, or all pinned)",
     [](CliOptions &O, V) { O.Direct = true; return Status(); }},
    {"--point", "FILE", SearchOnly,
     "apply a serialized point that pins every search construct (no search)",
     [](CliOptions &O, V X) { O.PointPath = X; return Status(); }},
    {"--search", "NAME", Run,
     "search module: bandit (default), tpe, random, hillclimb, de, exhaustive",
     [](CliOptions &O, V X) {
       if (!search::makeSearcher(std::string(X)))
         return Status::error("unknown search module '" + std::string(X) +
                              "'");
       O.Opts.SearcherName = X;
       return Status();
     }},
    {"--budget", "N", Run, "variant assessments (default 100)",
     [](CliOptions &O, V X) { return atLeast(X, 1, O.Opts.MaxEvaluations); }},
    {"--seed", "N", Run, "search seed (default 42)",
     [](CliOptions &O, V X) { return atLeast<uint64_t>(X, 0, O.Opts.Seed); }},
    {"--jobs", "N", Run,
     "concurrent evaluation workers (default 1); same trajectory as serial",
     [](CliOptions &O, V X) { return atLeast(X, 1, O.Opts.Jobs); }},
    {"--journal", "FILE", Run,
     "append every assessed variant to a crash-safe journal",
     [](CliOptions &O, V X) { O.Opts.JournalPath = X; return Status(); }},
    {"--journal-sync", "none|flush|full", Run,
     "durability of each journal record (default full: fsync per record)",
     [](CliOptions &O, V X) {
       bool Ok = false;
       O.Opts.JournalSyncMode = search::parseJournalSync(X, Ok);
       return Ok ? Status()
                 : Status::error("unknown mode '" + std::string(X) + "'");
     }},
    {"--resume", nullptr, Run,
     "reload an existing journal and continue the interrupted search",
     [](CliOptions &O, V) {
       O.Opts.ResumeFromJournal = true;
       return Status();
     }},
    {"--no-static-prune", nullptr, Run,
     "disable the static legality oracle (every point reaches the evaluator)",
     [](CliOptions &O, V) { O.Opts.StaticPrune = false; return Status(); }},

    // The variant objective (forwarded to workers).
    {"--machine", "xeon|tiny", Objective, "simulated machine (default xeon)",
     [](CliOptions &O, V X) {
       if (X == "xeon")
         O.Opts.Eval.Machine = machine::MachineConfig::xeonE5v3();
       else if (X == "tiny")
         O.Opts.Eval.Machine = machine::MachineConfig::tiny();
       else
         return Status::error("unknown machine '" + std::string(X) +
                              "' (want xeon or tiny)");
       return Status();
     }},
    {"--cores", "N", Objective, "override the simulated core count",
     [](CliOptions &O, V X) {
       return atLeast(X, 1, O.Opts.Eval.Machine.Cores);
     }},
    {"--no-eval-cache", nullptr, Objective,
     "re-simulate distinct points that materialize to the same variant",
     [](CliOptions &O, V) { O.Opts.UseEvalCache = false; return Status(); }},
    {"--cache-dir", "DIR", Objective,
     "persist the evaluation cache in DIR/evalcache.rlog (shareable)",
     [](CliOptions &O, V X) { O.Opts.CacheDir = X; return Status(); }},
    {"--cache-readonly", nullptr, Objective,
     "read a shared cache directory without appending to it",
     [](CliOptions &O, V) { O.Opts.CacheReadOnly = true; return Status(); }},
    {"--native-metric", nullptr, Objective,
     "measure every variant natively (simulator fallback without a compiler)",
     [](CliOptions &O, V) { O.Opts.NativeMetric = true; return Status(); }},
    {"--native-timeout", "SECS", Objective,
     "ceiling on each sandboxed native run (default 10)",
     [](CliOptions &O, V X) {
       return positive(X, O.Opts.Native.RunTimeoutSeconds);
     }},
    {"--keep-workdirs", nullptr, Objective,
     "keep each native evaluation's temporary directory",
     [](CliOptions &O, V) {
       O.Opts.Native.KeepWorkDir = true;
       return Status();
     }},
    {"--checksum-rtol", "X", Objective,
     "relative tolerance of checksum validation (default 1e-6)",
     [](CliOptions &O, V X) { return positive(X, O.Opts.ChecksumRtol); }},
    {"--trust-parallel", nullptr, Objective,
     "parallelize provably-racy loops anyway (checksums still guard them)",
     [](CliOptions &O, V) { O.Opts.TrustParallel = true; return Status(); }},
    {"--verify-each", nullptr, Objective,
     "run the CIR verifier after every applied transformation",
     [](CliOptions &O, V) { O.Opts.VerifyEach = true; return Status(); }},

    // What to do with the best variant.
    {"--emit-c", "FILE", Result, "write the best variant as compilable C",
     [](CliOptions &O, V X) { O.EmitC = X; return Status(); }},
    {"--export-direct", "FILE", Result,
     "write the best point as a pinned direct Locus program",
     [](CliOptions &O, V X) { O.ExportDirect = X; return Status(); }},
    {"--export-point", "FILE", Result,
     "write the best point in serialized form",
     [](CliOptions &O, V X) { O.ExportPoint = X; return Status(); }},
    {"--native", nullptr, Result,
     "also time the best variant natively and check it against the simulator",
     [](CliOptions &O, V) { O.Native = true; return Status(); }},

    // The tuning service.
    {"--serve", nullptr, ServeOnly,
     "dispatch assessments to worker processes through a durable queue",
     nullptr, M::Serve},
    {"--worker", nullptr, WorkerOnly,
     "evaluate a coordinator's queued tasks until it shuts down", nullptr,
     M::Worker},
    {"--queue-dir", "DIR", ServeOnly | WorkerOnly,
     "the tuning-service queue directory",
     [](CliOptions &O, V X) { O.Opts.Serve.QueueDir = X; return Status(); },
     M::Search, ServeOnly | WorkerOnly},
    {"--workers", "N", ServeOnly,
     "worker processes to spawn (default 1; 0: bring your own fleet)",
     [](CliOptions &O, V X) { return atLeast(X, 0, O.Opts.Serve.Workers); }},
    {"--lease-timeout", "SECS", ServeOnly,
     "seconds before an unfinished task's lease expires (default 10)",
     [](CliOptions &O, V X) {
       return positive(X, O.Opts.Serve.LeaseTimeoutSeconds);
     }},
    {service::WorkerIdFlag, "ID", WorkerOnly,
     "worker name in the queue records (default pid<PID>)",
     [](CliOptions &O, V X) { O.WorkerId = X; return Status(); }},

    // Static analyses.
    {"--lint", nullptr, modeBit(M::Lint),
     "verifier, dependence, race, discovery and bounds warnings; exits 0",
     nullptr, M::Lint},
    {"--lint-strict", nullptr, modeBit(M::Lint) | modeBit(M::BoundsCheck),
     "lint (or bounds-check) that exits 1 on any finding",
     [](CliOptions &O, V) { O.LintStrict = true; return Status(); }, M::Lint},
    {"--race-check", nullptr, modeBit(M::RaceCheck),
     "per-loop parallel-safety verdicts, variable classes and race witnesses",
     nullptr, M::RaceCheck},
    {"--bounds-check", nullptr, modeBit(M::BoundsCheck),
     "prove every array subscript in bounds by symbolic range analysis",
     nullptr, M::BoundsCheck},

    // Region discovery.
    {"--discover", nullptr, DiscoverOnly,
     "rank the candidate loop nests of a source without @Locus pragmas",
     nullptr, M::Discover},
    {"--discover-top", "N", DiscoverOnly,
     "tune only the N hottest annotatable candidates (default all)",
     [](CliOptions &O, V X) { return atLeast(X, 1, O.DiscoverTop); }},
    {"--tune", nullptr, DiscoverOnly,
     "annotate the candidates and tune each under the generic program",
     [](CliOptions &O, V) { O.Tune = true; return Status(); }},

    // Record-log inspection.
    {"--journal-dump", "FILE", DumpOnly,
     "print a search journal's header and records",
     [](CliOptions &O, V X) { return dump(O, X, false); }, M::Dump},
    {"--queue-dump", "PATH", DumpOnly,
     "print a queue log's records and folded task state (file or queue dir)",
     [](CliOptions &O, V X) { return dump(O, X, true); }, M::Dump},

    {"--help", nullptr, AllModes, "print this help",
     [](CliOptions &O, V) { O.Help = true; return Status(); }},
};

const CliFlag *findFlag(V Name) {
  for (const CliFlag &F : Flags)
    if (Name == F.Name)
      return &F;
  return nullptr;
}

std::string spelled(const CliFlag &F) {
  return F.Value ? std::string(F.Name) + " " + F.Value : F.Name;
}

} // namespace

const char *cliModeName(CliMode Mode) {
  return Modes[static_cast<size_t>(Mode)].Name;
}

std::span<const CliFlag> cliFlags() { return Flags; }

Expected<CliOptions> parseCli(int Argc, const char *const *Argv) {
  using Ret = Expected<CliOptions>;
  CliOptions O;
  // Snippet arguments may name files on disk (the paper's scatter_DZG.txt
  // workflow); search-internal replay only reaches them through module
  // calls the user wrote.
  O.Opts.AllowSnippetFiles = true;
  O.Opts.Serve.Workers = 1;
  std::vector<const CliFlag *> Given;
  std::vector<std::string> Operands;
  for (int I = 1; I < Argc; ++I) {
    V Tok = Argv[I];
    if (!Tok.starts_with("--")) {
      Operands.emplace_back(Tok);
      continue;
    }
    const CliFlag *F = findFlag(Tok);
    if (!F)
      return Ret::error("unknown option " + std::string(Tok));
    V Value;
    if (F->Value) {
      if (I + 1 == Argc || *Argv[I + 1] == '\0' ||
          V(Argv[I + 1]).starts_with("--"))
        return Ret::error(std::string(F->Name) + ": missing value " +
                          F->Value);
      Value = Argv[++I];
    }
    if (F->Set)
      if (Status S = F->Set(O, Value); !S.ok())
        return Ret::error(std::string(F->Name) + ": " + S.message());
    if (O.Help)
      return O;
    if (F->Modes & WorkerOnly) {
      O.WorkerArgs.emplace_back(F->Name);
      if (F->Value)
        O.WorkerArgs.emplace_back(Value);
    }
    O.Mode = std::max(O.Mode, F->Selects);
    Given.push_back(F);
  }

  const ModeInfo &Mode = Modes[static_cast<size_t>(O.Mode)];
  for (const CliFlag *F : Given)
    if (!(F->Modes & modeBit(O.Mode)))
      return Ret::error(std::string(F->Name) + " does not apply in " +
                        Mode.Name + " mode");
  for (const CliFlag &F : Flags)
    if ((F.RequiredIn & modeBit(O.Mode)) &&
        std::find(Given.begin(), Given.end(), &F) == Given.end())
      return Ret::error(std::string(Mode.Name) + " mode requires " +
                        spelled(F));
  if (Operands.size() != Mode.NumOperands)
    return Ret::error(std::string(Mode.Name) + " mode wants " +
                      (Mode.NumOperands ? Mode.Operands : "no operands") +
                      ", got " + std::to_string(Operands.size()) +
                      " operand(s)");
  if (Mode.NumOperands == 2)
    O.ProgramPath = Operands[0];
  if (Mode.NumOperands >= 1)
    O.SourcePath = Operands.back();
  return O;
}

std::string cliUsage(V Argv0) {
  std::string Out;
  for (int I = 0; I < NumCliModes; ++I) {
    const ModeInfo &Mode = Modes[I];
    std::string Selectors;
    bool Options = false;
    for (const CliFlag &F : Flags) {
      if (F.Selects != CliMode::Search && static_cast<int>(F.Selects) == I)
        Selectors += (Selectors.empty() ? "" : "|") + spelled(F);
      else if ((F.Modes & modeBit(CliMode(I))) && F.Modes != AllModes)
        Options = true;
    }
    Out += (I == 0 ? "usage: " : "       ") + std::string(Argv0);
    for (const std::string &Part :
         {Selectors, std::string(Mode.Operands),
          std::string(Options ? "[options]" : "")})
      if (!Part.empty())
        Out += " " + Part;
    Out += "\n";
  }
  return Out;
}

std::string cliHelp(V Argv0) {
  std::string Out = cliUsage(Argv0) + "\noptions (and the modes they apply "
                                      "to):\n";
  for (const CliFlag &F : Flags) {
    std::string Line = "  " + spelled(F);
    Line.resize(std::max<size_t>(Line.size() + 1, 28), ' ');
    Line += F.Help;
    if (F.Modes != AllModes) {
      std::string Names;
      for (int I = 0; I < NumCliModes; ++I)
        if (F.Modes & modeBit(CliMode(I)))
          Names += (Names.empty() ? "" : ", ") + std::string(Modes[I].Name);
      Line += " [" + Names + "]";
    }
    Out += Line + "\n";
  }
  return Out;
}

std::vector<std::string> workerArgv(const CliOptions &O,
                                    const std::string &Exe) {
  std::vector<std::string> Argv = {Exe, O.ProgramPath, O.SourcePath};
  for (const CliFlag &F : Flags)
    if (F.Selects == CliMode::Worker)
      Argv.emplace_back(F.Name);
  Argv.insert(Argv.end(), O.WorkerArgs.begin(), O.WorkerArgs.end());
  return Argv;
}

} // namespace driver
} // namespace locus
