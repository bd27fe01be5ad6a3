//===- Subprocess.h - Sandboxed subprocess execution ------------*- C++ -*-===//
///
/// \file
/// A POSIX fork/exec runner for compile-and-run evaluation. The empirical
/// search materializes arbitrary program variants and executes them; a
/// variant that hangs, fork-bombs, or allocates without bound must not take
/// the autotuning run down with it. Every native measurement therefore goes
/// through this sandbox:
///
///  - argv-vector invocation (execvp, never a shell): paths with spaces or
///    metacharacters cannot change the command;
///  - stdout/stderr captured through pipes with a per-stream size cap (the
///    child is drained past the cap so it never blocks on a full pipe);
///  - a wall-clock deadline enforced by the poll-loop watchdog: on expiry
///    the whole process *group* receives SIGTERM, and SIGKILL after a grace
///    period if anything survives — compiler or variant children included;
///  - setrlimit caps in the child (RLIMIT_CPU, RLIMIT_AS, RLIMIT_FSIZE) and
///    core dumps disabled unconditionally;
///  - classified exits: normal exit code, terminating signal (with its
///    name), deadline expiry, or spawn failure, so callers can map each
///    mode onto the search-layer failure taxonomy.
///
/// Hermetic per-evaluation working directories are provided by TempDir, an
/// mkdtemp + recursive-remove RAII wrapper, so concurrent evaluations never
/// collide on fixed /tmp paths.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_SUBPROCESS_H
#define LOCUS_SUPPORT_SUBPROCESS_H

#include "src/support/Error.h"

#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

namespace locus {
namespace support {

/// Resource caps applied to one spawned process (and, for the wall-clock
/// deadline, its whole process group). Zero means "no cap" everywhere.
struct SubprocessLimits {
  /// Wall-clock deadline in seconds; on expiry the process group is sent
  /// SIGTERM, then SIGKILL after TermGraceSeconds.
  double WallClockSeconds = 0;
  /// Grace period between SIGTERM and SIGKILL escalation.
  double TermGraceSeconds = 2.0;
  /// RLIMIT_CPU (seconds of CPU time; the kernel delivers SIGXCPU).
  long CpuSeconds = 0;
  /// RLIMIT_AS (bytes of address space; allocations beyond it fail).
  long AddressSpaceBytes = 0;
  /// RLIMIT_FSIZE (bytes per written file; the kernel delivers SIGXFSZ).
  long FileSizeBytes = 0;
  /// Per-stream capture cap; output beyond it is drained and discarded,
  /// with the Truncated flag set on the result.
  size_t MaxCaptureBytes = 1 << 20;
};

/// How the child left.
enum class SpawnExit : uint8_t {
  Exited,      ///< normal termination; ExitCode is valid
  Signaled,    ///< killed by a signal; Signal is valid
  TimedOut,    ///< watchdog deadline expired and the sandbox killed it
  SpawnFailed, ///< fork/exec itself failed; SpawnError is valid
};

struct SubprocessResult {
  SpawnExit Exit = SpawnExit::SpawnFailed;
  int ExitCode = -1; ///< valid when Exit == Exited
  int Signal = 0;    ///< terminating signal (Signaled, and TimedOut when the
                     ///< kernel reported one)
  /// The SIGTERM grace expired and SIGKILL was required.
  bool TermEscalated = false;
  bool StdoutTruncated = false;
  bool StderrTruncated = false;
  std::string Stdout;
  std::string Stderr;
  std::string SpawnError; ///< valid when Exit == SpawnFailed
  double ElapsedSeconds = 0;

  bool ok() const { return Exit == SpawnExit::Exited && ExitCode == 0; }
  /// Human-readable one-liner: "exited 0", "killed by SIGSEGV",
  /// "timed out after 2.50s (SIGTERM escalated to SIGKILL)", ...
  std::string describe() const;
};

struct SubprocessOptions {
  /// Argv[0] is the program (resolved through PATH); never a shell string.
  std::vector<std::string> Argv;
  /// Child working directory; empty inherits the parent's.
  std::string WorkDir;
  SubprocessLimits Limits;
};

/// Spawns, supervises, and reaps one sandboxed subprocess. Blocks until the
/// child (and, on timeout, its process group) is gone; never throws.
SubprocessResult runSubprocess(const SubprocessOptions &Opts);

/// Stable name of a signal number ("SIGSEGV", "SIGKILL", ...); "signal N"
/// for numbers without a well-known name.
std::string signalName(int Sig);

/// Spawn options for a supervised (non-blocking) child; see ChildProcess.
struct ChildProcessOptions {
  /// Argv[0] resolved through PATH; never a shell string.
  std::vector<std::string> Argv;
  /// Child working directory; empty inherits the parent's.
  std::string WorkDir;
  /// File receiving the child's stdout+stderr (opened O_APPEND so respawns
  /// of the same worker slot share one log); empty inherits the parent's
  /// streams.
  std::string OutputPath;
};

/// A long-lived supervised child, the asynchronous sibling of
/// runSubprocess: spawn returns immediately and the owner polls running()
/// from its supervision loop. Exec failures are still reported
/// synchronously through the CLOEXEC status pipe. The destructor SIGKILLs
/// the child's whole process group and reaps it, so a ChildProcess can
/// never leak a running worker. Movable, not copyable.
class ChildProcess {
public:
  ChildProcess() = default;
  ~ChildProcess();
  ChildProcess(ChildProcess &&Other) noexcept;
  ChildProcess &operator=(ChildProcess &&Other) noexcept;
  ChildProcess(const ChildProcess &) = delete;
  ChildProcess &operator=(const ChildProcess &) = delete;

  /// Forks and execs; the child gets its own process group. Fails only for
  /// fork/pipe/exec-level problems (a child that starts and then dies is a
  /// *death*, observed via running(), not a spawn failure).
  static Expected<ChildProcess> spawn(const ChildProcessOptions &Opts);

  bool valid() const { return Pid > 0; }
  pid_t pid() const { return Pid; }
  /// Non-blocking liveness probe; reaps and caches the exit when the child
  /// is gone.
  bool running();
  /// True once the child has been reaped (running() returned false).
  bool exited() const { return Pid > 0 && Reaped; }
  /// Exit code when the child exited normally, else -1.
  int exitCode() const;
  /// Terminating signal when the child was killed, else 0.
  int signal() const;
  /// "exited 0", "killed by SIGKILL", "still running", ...
  std::string describeExit() const;
  /// Signals the child's whole process group (child alone if the group is
  /// already gone).
  void signalGroup(int Sig);
  /// Waits up to TimeoutSeconds for the child to exit; true when reaped.
  bool waitExit(double TimeoutSeconds);
  /// SIGKILLs the group and reaps; idempotent.
  void kill();

private:
  pid_t Pid = -1;
  bool Reaped = false;
  int WaitStatus = 0;
};

/// True when setrlimit is usable on this host (the sandbox degrades to
/// timeout-only supervision when it is not).
bool rlimitsSupported();

/// Hermetic working directory: mkdtemp on construction, recursive removal
/// on destruction unless release()d. Movable, not copyable.
class TempDir {
public:
  /// Creates "<Base>/<Prefix>XXXXXX"; Base defaults to $TMPDIR or /tmp.
  explicit TempDir(const std::string &Prefix = "locus-",
                   const std::string &Base = "");
  ~TempDir();
  TempDir(TempDir &&Other) noexcept;
  TempDir &operator=(TempDir &&Other) noexcept;
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  /// Empty when creation failed.
  const std::string &path() const { return Path; }
  bool valid() const { return !Path.empty(); }
  /// Keeps the directory on disk (e.g. --keep-workdirs) and returns its
  /// path; the destructor becomes a no-op.
  std::string release();

private:
  std::string Path;
};

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_SUBPROCESS_H
