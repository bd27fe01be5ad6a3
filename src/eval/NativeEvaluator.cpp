//===- NativeEvaluator.cpp - Compile-and-run evaluation -----------------------===//

#include "src/eval/NativeEvaluator.h"

#include "src/analysis/ParallelSafety.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Printer.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

namespace locus {
namespace eval {

using namespace cir;

namespace {

/// Splices declaration-only blocks ("int i, j, k;" parses into a block of
/// three declarations) into their parent so the declared names stay in
/// scope for the sibling statements when emitted as C.
void flattenDeclGroups(Block &B) {
  std::vector<StmtPtr> Out;
  for (StmtPtr &S : B.Stmts) {
    // Harness-only calls have no native equivalent.
    if (auto *C = dyn_cast<CallStmt>(S.get())) {
      const auto *Call = cast<CallExpr>(C->Call.get());
      if (Call->Callee == "printf" || Call->Callee == "init_array" ||
          Call->Callee == "print_array" || Call->Callee == "free")
        continue;
    }
    if (auto *Sub = dyn_cast<Block>(S.get())) {
      bool AllDecls = !Sub->Stmts.empty() && Sub->RegionName.empty();
      for (const auto &Child : Sub->Stmts)
        if (!isa<DeclStmt>(Child.get()))
          AllDecls = false;
      if (AllDecls) {
        for (StmtPtr &Child : Sub->Stmts)
          Out.push_back(std::move(Child));
        continue;
      }
    }
    forEachStmt(*S, [](Stmt &Inner) {
      if (auto *F = dyn_cast<ForStmt>(&Inner))
        flattenDeclGroups(*F->Body);
      else if (auto *I = dyn_cast<IfStmt>(&Inner)) {
        flattenDeclGroups(*I->Then);
        if (I->Else)
          flattenDeclGroups(*I->Else);
      }
    });
    if (auto *Sub = dyn_cast<Block>(S.get()))
      flattenDeclGroups(*Sub);
    Out.push_back(std::move(S));
  }
  B.Stmts = std::move(Out);
}

} // namespace

std::string emitNativeC(const Program &OrigP) {
  std::unique_ptr<Program> Cloned = OrigP.clone();
  flattenDeclGroups(*Cloned->Body);
  // Proven-safe `omp parallel for` loops get their data-sharing clauses
  // (private inner indices, firstprivate scalars, reductions) so the emitted
  // C is correct when built with -fopenmp, not just when the pragma is
  // ignored. Unproven loops keep their bare pragma; the checksum validation
  // against the simulator reference catches a miscompiled race.
  analysis::annotateOmpClauses(*Cloned);
  const Program &P = *Cloned;
  std::ostringstream Out;
  Out << "#include <stdio.h>\n#include <stdlib.h>\n#include <time.h>\n";
  Out << "static long long locus_min(long long a, long long b) { return a < b ? a : b; }\n";
  Out << "static long long locus_max(long long a, long long b) { return a > b ? a : b; }\n";
  Out << "#define min(a, b) locus_min(a, b)\n#define max(a, b) locus_max(a, b)\n\n";

  // Globals, with the simulator's deterministic initialization.
  std::ostringstream Init;
  for (const auto &G : P.Globals) {
    Out << "static " << (G->Elem == ElemType::Int ? "long long " : "double ")
        << G->Name;
    int64_t Total = 1;
    for (int64_t D : G->Dims) {
      Out << '[' << D << ']';
      Total *= D;
    }
    Out << ";\n";
    if (G->isArray()) {
      const char *Elem = G->Elem == ElemType::Int ? "long long" : "double";
      Init << "  { " << Elem << " *locus_p = &" << G->Name;
      for (size_t I = 0; I < G->Dims.size(); ++I)
        Init << "[0]";
      Init << "; for (long long locus_i = 0; locus_i < " << Total
           << "; locus_i++) ";
      if (G->Elem == ElemType::Double)
        Init << "locus_p[locus_i] = (double)((locus_i * 7 + 3) % 1021) / "
                "1021.0; }\n";
      else
        Init << "locus_p[locus_i] = locus_i % 13; }\n";
    } else if (G->Init) {
      Init << "  " << G->Name << " = " << printExpr(*G->Init) << ";\n";
    } else if (G->Elem == ElemType::Double) {
      uint64_t H = fnv1a(G->Name);
      Init << "  " << G->Name << " = "
           << (0.5 + static_cast<double>(H % 1000) / 1000.0) << ";\n";
    }
  }

  // Scalars introduced by transformations (tile-loop variables) may lack
  // declarations: collect every name used as a loop variable or assignment
  // target that is not declared anywhere.
  std::set<std::string> Declared;
  for (const auto &G : P.Globals)
    Declared.insert(G->Name);
  forEachStmt(*P.Body, [&](Stmt &S) {
    if (auto *D = dyn_cast<DeclStmt>(&S))
      Declared.insert(D->Name);
  });
  std::set<std::string> Needed;
  forEachStmt(*P.Body, [&](Stmt &S) {
    if (auto *F = dyn_cast<ForStmt>(&S))
      if (!Declared.count(F->Var))
        Needed.insert(F->Var);
    if (auto *A = dyn_cast<AssignStmt>(&S))
      if (auto *V = dyn_cast<VarRef>(A->Lhs.get()))
        if (!Declared.count(V->Name))
          Needed.insert(V->Name);
  });

  // Every harness identifier carries the locus_ prefix so it cannot shadow
  // a program global (PolyBench's bicg has arrays named s and p).
  Out << "\nstatic double locus_checksum(void) {\n  double locus_s = 0;\n";
  for (const auto &G : P.Globals) {
    if (!G->isArray())
      continue;
    int64_t Total = 1;
    for (int64_t D : G->Dims)
      Total *= D;
    const char *Elem = G->Elem == ElemType::Int ? "long long" : "double";
    Out << "  { " << Elem << " *locus_p = &" << G->Name;
    for (size_t I = 0; I < G->Dims.size(); ++I)
      Out << "[0]";
    Out << "; for (long long locus_i = 0; locus_i < " << Total
        << "; locus_i++) locus_s += (double)locus_p[locus_i]; }\n";
  }
  Out << "  return locus_s;\n}\n\n";

  Out << "int main(void) {\n";
  for (const std::string &Name : Needed)
    Out << "  long long " << Name << " = 0; (void)" << Name << ";\n";
  Out << Init.str();
  Out << "  struct timespec locus_t0, locus_t1;\n";
  Out << "  clock_gettime(CLOCK_MONOTONIC, &locus_t0);\n";

  // The program body, minus region markers, translating ICC pragmas. The
  // harness intrinsics (init_array etc.) become no-ops.
  PrintOptions Opts;
  Opts.EmitRegionPragmas = false;
  std::string Body;
  for (const auto &S : P.Body->Stmts)
    Body += printStmt(*S, Opts, 1);
  // Pragma translation for portable compilers.
  auto ReplaceAll = [](std::string &Text, const std::string &From,
                       const std::string &To) {
    size_t Pos = 0;
    while ((Pos = Text.find(From, Pos)) != std::string::npos) {
      Text.replace(Pos, From.size(), To);
      Pos += To.size();
    }
  };
  ReplaceAll(Body, "#pragma ivdep", "#pragma GCC ivdep");
  ReplaceAll(Body, "#pragma vector always", "/* vector always */");
  // Harness calls the MiniC evaluator ignores.
  for (const char *Noop : {"init_array();", "print_array();", "rtclock()"})
    ReplaceAll(Body, Noop, Noop[0] == 'r' ? "0.0" : ";");
  Out << Body;

  Out << "  clock_gettime(CLOCK_MONOTONIC, &locus_t1);\n";
  Out << "  double locus_secs = (locus_t1.tv_sec - locus_t0.tv_sec) + 1e-9 * "
         "(locus_t1.tv_nsec - locus_t0.tv_nsec);\n";
  Out << "  printf(\"LOCUS_TIME %.9f\\nLOCUS_CHECKSUM %.9f\\n\", locus_secs, "
         "locus_checksum());\n";
  Out << "  return 0;\n}\n";
  return Out.str();
}

bool nativeCompilerAvailable(const std::string &Compiler) {
  support::SubprocessOptions SOpts;
  SOpts.Argv = {Compiler, "--version"};
  SOpts.Limits.WallClockSeconds = 10;
  SOpts.Limits.MaxCaptureBytes = 4096;
  return runSubprocess(SOpts).ok();
}

namespace {

/// First non-empty line of captured stderr, for compact diagnostics; the
/// full text stays in NativeResult::Error when short enough.
std::string summarizeStderr(const std::string &Err) {
  std::string_view Text = trimString(Err);
  if (Text.empty())
    return "";
  if (Text.size() <= 512)
    return std::string(Text);
  return std::string(Text.substr(0, 512)) + " ...";
}

/// Strict full-token double parse via std::from_chars.
bool parseDoubleToken(std::string_view Token, double &Out) {
  Token = trimString(Token);
  if (Token.empty())
    return false;
  const char *First = Token.data();
  const char *Last = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(First, Last, Out);
  return Ec == std::errc() && Ptr == Last;
}

} // namespace

Status parseNativeOutput(std::string_view Output, double &Seconds,
                         double &Checksum) {
  bool HaveTime = false, HaveSum = false;
  for (std::string_view Line : splitString(Output, '\n')) {
    Line = trimString(Line);
    if (Line.empty())
      continue;
    constexpr std::string_view TimeTag = "LOCUS_TIME ";
    constexpr std::string_view SumTag = "LOCUS_CHECKSUM ";
    if (startsWith(Line, TimeTag)) {
      if (HaveTime)
        return Status::error("duplicate LOCUS_TIME line");
      if (!parseDoubleToken(Line.substr(TimeTag.size()), Seconds))
        return Status::error("unparseable LOCUS_TIME value: '" +
                             std::string(Line) + "'");
      HaveTime = true;
    } else if (startsWith(Line, SumTag)) {
      if (HaveSum)
        return Status::error("duplicate LOCUS_CHECKSUM line");
      if (!parseDoubleToken(Line.substr(SumTag.size()), Checksum))
        return Status::error("unparseable LOCUS_CHECKSUM value: '" +
                             std::string(Line) + "'");
      HaveSum = true;
    } else {
      return Status::error("unexpected output line: '" + std::string(Line) +
                           "'");
    }
  }
  if (!HaveTime || !HaveSum)
    return Status::error(std::string("missing ") +
                         (HaveTime ? "LOCUS_CHECKSUM" : "LOCUS_TIME") +
                         " line");
  if (!std::isfinite(Seconds) || Seconds < 0)
    return Status::error("non-finite or negative LOCUS_TIME");
  if (!std::isfinite(Checksum))
    return Status::error("non-finite LOCUS_CHECKSUM");
  return Status::success();
}

NativeResult classifyNativeRun(const support::SubprocessResult &R) {
  using search::FailureKind;
  NativeResult N;
  switch (R.Exit) {
  case support::SpawnExit::SpawnFailed:
    N.Failure = FailureKind::PrepareFailed;
    N.Error = "cannot execute variant: " + R.SpawnError;
    return N;
  case support::SpawnExit::TimedOut:
    N.Failure = FailureKind::BudgetExceeded;
    N.Error = "native run " + R.describe();
    return N;
  case support::SpawnExit::Signaled:
    N.Failure = FailureKind::RuntimeTrap;
    N.Error = "variant killed by " + support::signalName(R.Signal);
    if (std::string S = summarizeStderr(R.Stderr); !S.empty())
      N.Error += ": " + S;
    return N;
  case support::SpawnExit::Exited:
    break;
  }
  if (R.ExitCode != 0) {
    N.Failure = FailureKind::RuntimeTrap;
    N.Error = "variant exited with status " + std::to_string(R.ExitCode);
    if (std::string S = summarizeStderr(R.Stderr); !S.empty())
      N.Error += ": " + S;
    return N;
  }
  if (R.StdoutTruncated) {
    N.Failure = FailureKind::MetricUnstable;
    N.Error = "variant output exceeded the capture cap";
    return N;
  }
  double Secs = 0, Sum = 0;
  if (Status S = parseNativeOutput(R.Stdout, Secs, Sum); !S.ok()) {
    N.Failure = FailureKind::MetricUnstable;
    N.Error = "malformed run output: " + S.message();
    return N;
  }
  N.Ok = true;
  N.Seconds = Secs;
  N.Checksum = Sum;
  return N;
}

search::EvalOutcome toEvalOutcome(const NativeResult &R) {
  return R.Ok ? search::EvalOutcome::success(R.Seconds)
              : search::EvalOutcome::fail(R.Failure, R.Error);
}

double nativeBackoffSeconds(uint64_t Seed, int Attempt, double BaseSeconds,
                            double CapSeconds) {
  if (BaseSeconds <= 0 || Attempt < 0)
    return 0;
  int Exp = Attempt < 20 ? Attempt : 20; // 2^20 * base already dwarfs any cap
  double Delay = BaseSeconds * static_cast<double>(1ULL << Exp);
  uint64_t H = hashCombine(Seed, static_cast<uint64_t>(Attempt) + 1);
  double Jitter = 0.5 + 0.5 * (static_cast<double>(H % 1024) / 1023.0);
  Delay *= Jitter;
  if (CapSeconds > 0 && Delay > CapSeconds)
    Delay = CapSeconds;
  return Delay;
}

NativeResult
retryUnstable(const std::function<NativeResult(int)> &RunOnce,
              const std::function<void(double)> &Sleep, uint64_t Seed,
              int MaxRetries, double BaseSeconds, double CapSeconds) {
  NativeResult R;
  int Attempts = 1 + std::max(0, MaxRetries);
  for (int Attempt = 0; Attempt < Attempts; ++Attempt) {
    if (Attempt > 0 && Sleep)
      Sleep(nativeBackoffSeconds(Seed, Attempt - 1, BaseSeconds, CapSeconds));
    R = RunOnce(Attempt);
    // Only the transient classification is worth re-measuring; a crash or a
    // deadline will reproduce, and retrying it would just burn budget.
    if (R.Ok || R.Failure != search::FailureKind::MetricUnstable)
      return R;
  }
  if (Attempts > 1)
    R.Error += " (persisted across " + std::to_string(Attempts - 1) +
               " backoff retries)";
  return R;
}

NativeResult evaluateNative(const Program &P, const NativeOptions &Opts) {
  using search::FailureKind;
  NativeResult R;
  std::string Source = emitNativeC(P);

  support::TempDir Work("locus-native-", Opts.WorkDir);
  if (!Work.valid()) {
    R.Failure = FailureKind::PrepareFailed;
    R.Error = "cannot create working directory under " +
              (Opts.WorkDir.empty() ? std::string("$TMPDIR") : Opts.WorkDir);
    return R;
  }
  // Every return path below goes through this finalizer.
  auto Finish = [&](NativeResult N) {
    if (Opts.KeepWorkDir)
      N.WorkDir = Work.release();
    return N;
  };

  std::string CFile = Work.path() + "/variant.c";
  std::string Bin = Work.path() + "/variant.bin";
  {
    FILE *F = std::fopen(CFile.c_str(), "w");
    if (!F) {
      R.Failure = FailureKind::PrepareFailed;
      R.Error = "cannot write " + CFile;
      return Finish(R);
    }
    std::fputs(Source.c_str(), F);
    std::fclose(F);
  }

  // Compile phase: argv invocation, deadline, captured stderr. No RLIMIT_AS
  // here — compilers legitimately map large address spaces.
  support::SubprocessOptions Build;
  Build.Argv.push_back(Opts.Compiler);
  for (const std::string &Flag : Opts.Flags)
    Build.Argv.push_back(Flag);
  Build.Argv.insert(Build.Argv.end(), {"-o", Bin, CFile});
  Build.WorkDir = Work.path();
  constexpr double CompileTimeoutSeconds = 60.0;
  Build.Limits.WallClockSeconds = CompileTimeoutSeconds;
  Build.Limits.MaxCaptureBytes = Opts.MaxCaptureBytes;
  support::SubprocessResult BuildRes = runSubprocess(Build);
  if (!BuildRes.ok()) {
    if (BuildRes.Exit == support::SpawnExit::SpawnFailed &&
        !nativeCompilerAvailable(Opts.Compiler))
      R.Error = "compiler not available: " + Opts.Compiler;
    else {
      R.Error = "native build failed (" + BuildRes.describe() + ")";
      if (std::string S = summarizeStderr(BuildRes.Stderr); !S.empty())
        R.Error += ": " + S;
    }
    R.Failure = BuildRes.Exit == support::SpawnExit::TimedOut
                    ? FailureKind::BudgetExceeded
                    : FailureKind::PrepareFailed;
    return Finish(R);
  }

  // Run phase: deadline + rlimits; minimum time over repeats; the checksum
  // must reproduce across repeats or the measurement is unstable.
  auto RunPhase = [&](int /*Attempt*/) -> NativeResult {
    NativeResult Phase;
    double BestSecs = 0, FirstSum = 0;
    for (int Rep = 0; Rep < std::max(1, Opts.Repeats); ++Rep) {
      support::SubprocessOptions Run;
      Run.Argv = {Bin};
      Run.WorkDir = Work.path();
      Run.Limits.WallClockSeconds = Opts.RunTimeoutSeconds;
      Run.Limits.MaxCaptureBytes = Opts.MaxCaptureBytes;
      if (Opts.RunTimeoutSeconds > 0)
        Run.Limits.CpuSeconds =
            static_cast<long>(Opts.RunTimeoutSeconds) + 1;
      constexpr long MemoryLimitBytes = 1L << 31; // 2 GiB RLIMIT_AS
      Run.Limits.AddressSpaceBytes = MemoryLimitBytes;
      Run.Limits.FileSizeBytes = 1L << 26; // a variant has no business writing
      NativeResult Attempt = classifyNativeRun(runSubprocess(Run));
      if (!Attempt.Ok)
        return Attempt;
      if (Rep == 0) {
        FirstSum = Attempt.Checksum;
      } else {
        double Tol = 1e-9 * std::max(1.0, std::abs(FirstSum));
        if (std::abs(Attempt.Checksum - FirstSum) > Tol) {
          Phase.Failure = FailureKind::MetricUnstable;
          Phase.Error = "checksum varies across repeats: " +
                        std::to_string(FirstSum) + " vs " +
                        std::to_string(Attempt.Checksum);
          return Phase;
        }
      }
      if (Rep == 0 || Attempt.Seconds < BestSecs)
        BestSecs = Attempt.Seconds;
    }
    Phase.Ok = true;
    Phase.Failure = FailureKind::None;
    Phase.Seconds = BestSecs;
    Phase.Checksum = FirstSum;
    return Phase;
  };

  // Transient instability (noisy neighbor, paging storm) is re-measured on
  // a deterministic backoff schedule. Seeding from the variant's source
  // keeps the schedule a pure function of the variant: --jobs N workers and
  // separate processes retry identically, preserving trajectory parity.
  constexpr double RetryBackoffBaseSeconds = 0.05;
  constexpr double RetryBackoffCapSeconds = 1.0;
  return Finish(retryUnstable(
      RunPhase,
      [](double Secs) {
        if (Secs > 0)
          std::this_thread::sleep_for(std::chrono::duration<double>(Secs));
      },
      fnv1a(Source), Opts.MaxUnstableRetries, RetryBackoffBaseSeconds,
      RetryBackoffCapSeconds));
}

} // namespace eval
} // namespace locus
