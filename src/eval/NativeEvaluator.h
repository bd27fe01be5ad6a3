//===- NativeEvaluator.h - Sandboxed compile-and-run evaluation -*- C++ -*-===//
///
/// \file
/// The paper's actual evaluation loop: unparse the variant to C, build it
/// with the system compiler (the Search block's buildcmd), run it (runcmd)
/// and use wall-clock time as the metric. The emitted harness initializes
/// arrays with the same deterministic patterns as the simulator, times the
/// program body, and prints a checksum so native results can be validated
/// against the machine-model evaluator.
///
/// Every compile and every run happens inside support::Subprocess — argv
/// invocation (no shell), a wall-clock watchdog with SIGTERM -> SIGKILL
/// escalation, rlimit caps, and process-group cleanup — in a hermetic
/// mkdtemp working directory that is removed on every exit path (kept on
/// request for debugging). Failures are classified into the search layer's
/// FailureKind taxonomy: compile failure -> PrepareFailed, crash signal ->
/// RuntimeTrap (with the signal named), deadline -> BudgetExceeded, garbage
/// or non-reproducible output -> MetricUnstable. That makes native
/// measurement a first-class citizen of the fault-tolerant search loop: a
/// hanging or fork-bombing variant costs its deadline and one counter
/// increment, never the autotuning run.
///
/// The simulator remains the default metric (deterministic, portable); this
/// evaluator exists for hosts with a C compiler where real measurements are
/// wanted.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_EVAL_NATIVEEVALUATOR_H
#define LOCUS_EVAL_NATIVEEVALUATOR_H

#include "src/cir/Ast.h"
#include "src/search/Search.h"
#include "src/support/Error.h"
#include "src/support/Subprocess.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace locus {
namespace eval {

struct NativeOptions {
  std::string Compiler = "cc";
  std::vector<std::string> Flags = {"-O2"};
  /// Base directory under which each evaluation creates its own mkdtemp
  /// working directory (never a shared fixed path); empty means $TMPDIR or
  /// /tmp. The unique directory is removed when the evaluation finishes
  /// unless KeepWorkDir is set.
  std::string WorkDir = "";
  /// Timing repetitions; the minimum is reported.
  int Repeats = 3;
  /// Wall-clock deadline per run of the variant binary; <= 0 disables.
  /// The orchestrator derives this from the baseline's native time the same
  /// way simulator variants get iteration deadlines.
  double RunTimeoutSeconds = 10.0;
  /// Per-stream stdout/stderr capture cap for both phases.
  size_t MaxCaptureBytes = 1 << 16;
  /// Keep the working directory (sources, binary, outputs) on disk and
  /// report it in NativeResult::WorkDir — the CLI's --keep-workdirs.
  bool KeepWorkDir = false;
  /// Bounded re-runs of the measurement phase when it classifies
  /// MetricUnstable (garbage output, checksum varying across repeats) — the
  /// transient failure mode of a loaded host. Other failures (crash,
  /// deadline, compile error) are never retried. 0 disables.
  int MaxUnstableRetries = 2;
  /// Between those retries sleeps a capped exponential backoff (0.05 s
  /// doubling per attempt, at most 1 s) scaled by a jitter factor derived
  /// purely from (seed, attempt) — deterministic, so --jobs 1 and --jobs N
  /// runs retry on an identical schedule.
};

struct NativeResult {
  bool Ok = false;
  /// Human-readable failure description; for compile failures it carries
  /// the captured compiler stderr.
  std::string Error;
  /// Classification of the failure in the search taxonomy; None when Ok.
  search::FailureKind Failure = search::FailureKind::None;
  double Seconds = 0;
  double Checksum = 0;
  /// Path of the retained working directory when KeepWorkDir was set
  /// (empty otherwise — the directory is already gone).
  std::string WorkDir;
};

/// Emits a self-contained compilable C file for \p P: includes, min/max
/// helpers, deterministically initialized globals, a timed main and a
/// checksum print.
std::string emitNativeC(const cir::Program &P);

/// True when \p Compiler can be invoked on this host (probed with a
/// sandboxed `--version` run, not a shell).
bool nativeCompilerAvailable(const std::string &Compiler);

/// Strictly parses the harness's "LOCUS_TIME x / LOCUS_CHECKSUM y" stdout
/// with std::from_chars. Any unexpected line, missing field, trailing
/// garbage after a number, or non-finite/negative time is an error — a
/// variant that prints garbage must classify as MetricUnstable, never as a
/// silently wrong metric.
Status parseNativeOutput(std::string_view Output, double &Seconds,
                         double &Checksum);

/// Classifies one finished run-phase subprocess into a NativeResult:
/// deadline -> BudgetExceeded, terminating signal -> RuntimeTrap (signal
/// named in the detail), nonzero exit -> RuntimeTrap, unparseable stdout ->
/// MetricUnstable, clean exit + valid output -> Ok. Exposed so the
/// fault-injection tests can drive real crashing/hanging binaries through
/// the exact classification path the evaluator uses.
NativeResult classifyNativeRun(const support::SubprocessResult &R);

/// Maps a NativeResult onto the search-layer outcome (success(Seconds) or
/// fail(Failure, Error)).
search::EvalOutcome toEvalOutcome(const NativeResult &R);

/// The backoff before retry number \p Attempt (0-based): a pure function of
/// its arguments — capped exponential growth from \p BaseSeconds with a
/// multiplicative jitter in [0.5, 1.0] derived from (Seed, Attempt), no
/// global RNG — so every process and worker retrying the same variant
/// computes the same schedule and parallel runs stay reproducible.
double nativeBackoffSeconds(uint64_t Seed, int Attempt, double BaseSeconds,
                            double CapSeconds);

/// Retry policy driver: invokes \p RunOnce (argument: 0-based attempt
/// number) until it returns Ok or a failure other than MetricUnstable, up
/// to \p MaxRetries re-runs, sleeping nativeBackoffSeconds() via \p Sleep
/// between attempts. Returns the final attempt's result, its Error
/// annotated with the retry count when instability persisted. Exposed with
/// injectable callables so tests exercise the policy without a compiler.
NativeResult
retryUnstable(const std::function<NativeResult(int)> &RunOnce,
              const std::function<void(double)> &Sleep, uint64_t Seed,
              int MaxRetries, double BaseSeconds, double CapSeconds);

/// Builds and runs \p P natively inside the sandbox.
NativeResult evaluateNative(const cir::Program &P,
                            const NativeOptions &Opts = NativeOptions());

} // namespace eval
} // namespace locus

#endif // LOCUS_EVAL_NATIVEEVALUATOR_H
