//===- Subprocess.cpp - Sandboxed subprocess execution --------------------===//

#include "src/support/Subprocess.h"

#include "src/support/Posix.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <utility>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#ifdef __linux__
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace locus {
namespace support {

namespace {

/// Child-side rlimit application; async-signal-safe (setrlimit only).
/// Failures are deliberately ignored: a host without rlimit support still
/// gets timeout supervision from the parent-side watchdog.
void applyLimits(const SubprocessLimits &L) {
  rlimit R;
  // Core dumps off unconditionally: a crashing variant must not litter the
  // workdir (or stall on a multi-GiB dump) once per failing point.
  R.rlim_cur = 0;
  R.rlim_max = 0;
  setrlimit(RLIMIT_CORE, &R);
  if (L.CpuSeconds > 0) {
    R.rlim_cur = static_cast<rlim_t>(L.CpuSeconds);
    // Hard limit one second above soft: SIGXCPU first, SIGKILL backstop.
    R.rlim_max = static_cast<rlim_t>(L.CpuSeconds + 1);
    setrlimit(RLIMIT_CPU, &R);
  }
  if (L.AddressSpaceBytes > 0) {
    R.rlim_cur = R.rlim_max = static_cast<rlim_t>(L.AddressSpaceBytes);
    setrlimit(RLIMIT_AS, &R);
  }
  if (L.FileSizeBytes > 0) {
    R.rlim_cur = R.rlim_max = static_cast<rlim_t>(L.FileSizeBytes);
    setrlimit(RLIMIT_FSIZE, &R);
  }
}

/// Appends up to the cap from one pipe; returns false on EOF.
bool drainPipe(int Fd, std::string &Sink, size_t Cap, bool &Truncated) {
  char Buf[65536];
  for (;;) {
    ssize_t N = retryRead(Fd, Buf, sizeof(Buf));
    if (N == 0)
      return false;
    if (N < 0)
      return errno == EAGAIN || errno == EWOULDBLOCK;
    size_t Got = static_cast<size_t>(N);
    size_t Take = Sink.size() < Cap ? std::min(Got, Cap - Sink.size()) : 0;
    Sink.append(Buf, Take);
    if (Take < Got)
      Truncated = true;
    if (static_cast<size_t>(N) < sizeof(Buf))
      return true; // pipe momentarily empty
  }
}

void setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

} // namespace

std::string signalName(int Sig) {
  switch (Sig) {
  case SIGHUP:  return "SIGHUP";
  case SIGINT:  return "SIGINT";
  case SIGQUIT: return "SIGQUIT";
  case SIGILL:  return "SIGILL";
  case SIGTRAP: return "SIGTRAP";
  case SIGABRT: return "SIGABRT";
  case SIGBUS:  return "SIGBUS";
  case SIGFPE:  return "SIGFPE";
  case SIGKILL: return "SIGKILL";
  case SIGUSR1: return "SIGUSR1";
  case SIGSEGV: return "SIGSEGV";
  case SIGUSR2: return "SIGUSR2";
  case SIGPIPE: return "SIGPIPE";
  case SIGALRM: return "SIGALRM";
  case SIGTERM: return "SIGTERM";
  case SIGXCPU: return "SIGXCPU";
  case SIGXFSZ: return "SIGXFSZ";
  default:      return "signal " + std::to_string(Sig);
  }
}

bool rlimitsSupported() {
  rlimit R;
  return getrlimit(RLIMIT_CPU, &R) == 0;
}

std::string SubprocessResult::describe() const {
  char Buf[128];
  switch (Exit) {
  case SpawnExit::Exited:
    std::snprintf(Buf, sizeof(Buf), "exited %d", ExitCode);
    return Buf;
  case SpawnExit::Signaled:
    return "killed by " + signalName(Signal);
  case SpawnExit::TimedOut:
    std::snprintf(Buf, sizeof(Buf), "timed out after %.2fs%s", ElapsedSeconds,
                  TermEscalated ? " (SIGTERM escalated to SIGKILL)" : "");
    return Buf;
  case SpawnExit::SpawnFailed:
    return "spawn failed: " + SpawnError;
  }
  return "unknown";
}

namespace {

/// Poll period for a running child when pidfd_open is refused (ENOSYS on
/// old kernels, EPERM under some seccomp filters): the one place either
/// wait still ticks instead of being woken by the exit.
constexpr int ExitTickMs = 5;

/// Milliseconds from Now until At, rounded up and at least 1; -1 (no
/// timeout) when At is 0.
int msUntil(double At, double Now) {
  if (At <= 0)
    return -1;
  return static_cast<int>(std::clamp(std::ceil((At - Now) * 1000), 1.0, 1e9));
}

} // namespace

SubprocessResult runSubprocess(const SubprocessOptions &Opts) {
  SubprocessResult Res;
  int OutPipe[2] = {-1, -1}, ErrPipe[2] = {-1, -1};
  if (pipe2(OutPipe, O_CLOEXEC) != 0 || pipe2(ErrPipe, O_CLOEXEC) != 0) {
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    for (int Fd : {OutPipe[0], OutPipe[1], ErrPipe[0], ErrPipe[1]})
      closeQuietly(Fd);
    return Res;
  }

  ChildProcessOptions ChildOpts;
  ChildOpts.Argv = Opts.Argv;
  ChildOpts.WorkDir = Opts.WorkDir;
  double Start = monotonicSeconds();
  Expected<ChildProcess> Spawned =
      ChildProcess::start(ChildOpts, &Opts.Limits, OutPipe[1], ErrPipe[1]);
  // The child has its own copies of the write ends; ours must go, or the
  // pipes never reach EOF.
  closeQuietly(OutPipe[1]);
  closeQuietly(ErrPipe[1]);
  if (!Spawned) {
    closeQuietly(OutPipe[0]);
    closeQuietly(ErrPipe[0]);
    Res.SpawnError = Spawned.message();
    return Res;
  }
  ChildProcess &Child = *Spawned;

  int Pipes[2] = {OutPipe[0], ErrPipe[0]}; // -1 once drained to EOF
  setNonBlocking(Pipes[0]);
  setNonBlocking(Pipes[1]);
  double Deadline = Opts.Limits.WallClockSeconds > 0
                        ? Start + Opts.Limits.WallClockSeconds
                        : 0;
  double Escalation = 0; // SIGKILL time once SIGTERM has been sent
  double ReapedAt = 0;
  bool TimedOut = false;

  for (;;) {
    double Now = monotonicSeconds();
    bool Alive = Child.running();
    if (!Alive && ReapedAt == 0)
      ReapedAt = Now;
    if (!Alive && Pipes[0] < 0 && Pipes[1] < 0)
      break;

    double WakeAt = 0; // the next watchdog step; 0 for none
    if (!Alive) {
      // A grandchild that escaped its group can hold the pipes open after
      // the child is gone; don't wait on it forever.
      WakeAt = ReapedAt + 1.0;
      if (Now >= WakeAt)
        break;
    } else if (Deadline > 0) {
      // Watchdog: deadline -> SIGTERM the group; grace -> SIGKILL.
      if (!TimedOut && Now >= Deadline) {
        TimedOut = true;
        Child.signalGroup(SIGTERM);
        Escalation = Now + std::max(0.0, Opts.Limits.TermGraceSeconds);
      }
      if (TimedOut && !Res.TermEscalated && Now >= Escalation) {
        Child.signalGroup(SIGKILL);
        Res.TermEscalated = true;
      }
      WakeAt = !TimedOut ? Deadline : Res.TermEscalated ? 0 : Escalation;
    }

    // Pipes first, then the pidfd: the child's exit wakes the poll at once.
    pollfd Fds[3];
    nfds_t NPipes = 0;
    for (int Fd : Pipes)
      if (Fd >= 0)
        Fds[NPipes++] = {Fd, POLLIN, 0};
    nfds_t N = NPipes;
    int TimeoutMs = Child.watchExit(Fds, N, msUntil(WakeAt, Now));
    if (retryPoll(Fds, N, TimeoutMs) < 0)
      break;
    for (nfds_t I = 0; I < NPipes; ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      bool IsOut = Fds[I].fd == Pipes[0];
      int &Fd = Pipes[IsOut ? 0 : 1];
      if (!drainPipe(Fd, IsOut ? Res.Stdout : Res.Stderr,
                     Opts.Limits.MaxCaptureBytes,
                     IsOut ? Res.StdoutTruncated : Res.StderrTruncated)) {
        closeQuietly(Fd);
        Fd = -1;
      }
    }
  }
  closeQuietly(Pipes[0]);
  closeQuietly(Pipes[1]);
  // Reaps the child if the poll failed first, then sweeps stragglers: any
  // group member still alive after the child was reaped (killed-but-
  // lingering descendants on the timeout path, or children the variant
  // forked and never waited for).
  Child.kill();
  Res.ElapsedSeconds = monotonicSeconds() - Start;

  if (int Sig = Child.signal()) {
    Res.Exit = SpawnExit::Signaled;
    Res.Signal = Sig;
  } else {
    Res.Exit = SpawnExit::Exited;
    Res.ExitCode = Child.exitCode();
  }
  if (TimedOut)
    Res.Exit = SpawnExit::TimedOut; // deadline classification wins
  return Res;
}

//===----------------------------------------------------------------------===//
// ChildProcess
//===----------------------------------------------------------------------===//

ChildProcess::~ChildProcess() { kill(); }

ChildProcess::ChildProcess(ChildProcess &&Other) noexcept
    : Pid(std::exchange(Other.Pid, -1)), PidFd(std::exchange(Other.PidFd, -1)),
      Reaped(Other.Reaped), WaitStatus(Other.WaitStatus) {}

ChildProcess &ChildProcess::operator=(ChildProcess &&Other) noexcept {
  if (this != &Other) {
    kill();
    Pid = std::exchange(Other.Pid, -1);
    PidFd = std::exchange(Other.PidFd, -1);
    Reaped = Other.Reaped;
    WaitStatus = Other.WaitStatus;
  }
  return *this;
}

Expected<ChildProcess> ChildProcess::spawn(const ChildProcessOptions &Opts) {
  return start(Opts, nullptr, -1, -1);
}

Expected<ChildProcess> ChildProcess::start(const ChildProcessOptions &Opts,
                                           const SubprocessLimits *Limits,
                                           int OutFd, int ErrFd) {
  if (Opts.Argv.empty())
    return Expected<ChildProcess>::error("empty argv");

  // exec-failure reporting channel: a successful exec closes it silently
  // and a failed one writes errno through it. O_CLOEXEC like every pipe
  // here, so a child another thread forks meanwhile cannot hold it open.
  int StatusPipe[2];
  if (pipe2(StatusPipe, O_CLOEXEC) != 0)
    return Expected<ChildProcess>::error(std::string("pipe: ") +
                                         std::strerror(errno));

  // argv built before fork: only async-signal-safe calls after it.
  std::vector<char *> Argv;
  Argv.reserve(Opts.Argv.size() + 1);
  for (const std::string &A : Opts.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t ParentPid = getpid();
  pid_t Pid = fork();
  if (Pid < 0) {
    int Err = errno;
    closeQuietly(StatusPipe[0]);
    closeQuietly(StatusPipe[1]);
    return Expected<ChildProcess>::error(std::string("fork: ") +
                                         std::strerror(Err));
  }

  if (Pid == 0) {
    // Child. Own process group, so a group kill reaches every descendant
    // (compiler cc1/ld children, forked variant children).
    setpgid(0, 0);
    auto Die = [&](int Err) {
      ssize_t Ignored = write(StatusPipe[1], &Err, sizeof(Err));
      (void)Ignored;
      _exit(127);
    };
#ifdef __linux__
    // Arm PR_SET_PDEATHSIG so the kernel SIGKILLs the child the moment the
    // forking thread dies. Own process groups also mean a SIGKILLed
    // supervisor would orphan its children; the death signal is what
    // guarantees the crash-torture suite never leaks a worker fleet. It is
    // tied to that thread, which runSubprocess blocks until the reap.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    // Close the fork/prctl race: if the parent died before the death
    // signal was armed, the child has been reparented already.
    if (getppid() != ParentPid)
      Die(ESRCH);
#else
    (void)ParentPid;
#endif
    if (Limits)
      applyLimits(*Limits);
    int DevNull = open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (DevNull >= 0)
      dup2(DevNull, STDIN_FILENO);
    if (OutFd >= 0) {
      dup2(OutFd, STDOUT_FILENO);
      dup2(ErrFd, STDERR_FILENO);
    } else if (!Opts.OutputPath.empty()) {
      int Out = open(Opts.OutputPath.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (Out < 0)
        Die(errno);
      dup2(Out, STDOUT_FILENO);
      dup2(Out, STDERR_FILENO);
    }
    if (!Opts.WorkDir.empty() && chdir(Opts.WorkDir.c_str()) != 0)
      Die(errno);
    execvp(Argv[0], Argv.data());
    Die(errno);
  }

  // Parent. Mirror the child's setpgid to close the fork/exec race: until
  // one of the two calls lands, a group kill could miss the child.
  setpgid(Pid, Pid);
  closeQuietly(StatusPipe[1]);
  ChildProcess CP;
  CP.Pid = Pid;
#ifdef __linux__
  // -1 where pidfd_open is refused: the waits then tick at ExitTickMs.
  CP.PidFd = static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
#endif
  // Block on the status pipe: EOF means the exec succeeded.
  int ExecErr = 0;
  ssize_t StatusN = retryRead(StatusPipe[0], &ExecErr, sizeof(ExecErr));
  closeQuietly(StatusPipe[0]);
  if (StatusN == static_cast<ssize_t>(sizeof(ExecErr)))
    return Expected<ChildProcess>::error(Opts.Argv[0] + ": " +
                                         std::strerror(ExecErr));
  return CP; // (on the error path above, CP reaps the _exit(127) child)
}

bool ChildProcess::running() {
  if (Pid <= 0)
    return false;
  if (!Reaped && retryWaitpid(Pid, &WaitStatus, WNOHANG) == Pid) {
    Reaped = true;
    closeQuietly(std::exchange(PidFd, -1)); // readable forever from here on
  }
  return !Reaped;
}

int ChildProcess::exitCode() const {
  return Reaped && WIFEXITED(WaitStatus) ? WEXITSTATUS(WaitStatus) : -1;
}

int ChildProcess::signal() const {
  return Reaped && WIFSIGNALED(WaitStatus) ? WTERMSIG(WaitStatus) : 0;
}

std::string ChildProcess::describeExit() const {
  if (Pid <= 0)
    return "never spawned";
  if (!Reaped)
    return "still running";
  if (WIFEXITED(WaitStatus))
    return "exited " + std::to_string(WEXITSTATUS(WaitStatus));
  if (WIFSIGNALED(WaitStatus))
    return "killed by " + signalName(WTERMSIG(WaitStatus));
  return "unknown exit";
}

void ChildProcess::signalGroup(int Sig) {
  if (Pid > 0 && !Reaped && ::kill(-Pid, Sig) != 0)
    ::kill(Pid, Sig);
}

int ChildProcess::watchExit(pollfd *Fds, nfds_t &N, int TimeoutMs) const {
  if (Reaped)
    return TimeoutMs;
  if (PidFd >= 0) {
    Fds[N++] = {PidFd, POLLIN, 0};
    return TimeoutMs;
  }
  return TimeoutMs < 0 ? ExitTickMs : std::min(TimeoutMs, ExitTickMs);
}

bool ChildProcess::waitExit(double TimeoutSeconds) {
  double Deadline = monotonicSeconds() + TimeoutSeconds;
  while (running()) {
    double Now = monotonicSeconds();
    if (Now >= Deadline)
      return false;
    pollfd P;
    nfds_t N = 0;
    int TimeoutMs = watchExit(&P, N, msUntil(Deadline, Now));
    if (retryPoll(&P, N, TimeoutMs) < 0)
      closeQuietly(std::exchange(PidFd, -1)); // poll refused it: tick instead
  }
  return Pid > 0;
}

void ChildProcess::kill() {
  if (Pid <= 0)
    return;
  if (!Reaped) {
    signalGroup(SIGKILL);
    retryWaitpid(Pid, &WaitStatus, 0);
    Reaped = true;
  }
  closeQuietly(std::exchange(PidFd, -1));
  // Sweep group stragglers the child never waited for.
  ::kill(-Pid, SIGKILL);
}

//===----------------------------------------------------------------------===//
// TempDir
//===----------------------------------------------------------------------===//

namespace {

void removeTree(const std::string &Path) {
  DIR *D = opendir(Path.c_str());
  if (!D) {
    unlink(Path.c_str());
    return;
  }
  while (dirent *E = readdir(D)) {
    if (std::strcmp(E->d_name, ".") == 0 || std::strcmp(E->d_name, "..") == 0)
      continue;
    std::string Child = Path + "/" + E->d_name;
    struct stat St;
    if (lstat(Child.c_str(), &St) == 0 && S_ISDIR(St.st_mode))
      removeTree(Child);
    else
      unlink(Child.c_str());
  }
  closedir(D);
  rmdir(Path.c_str());
}

} // namespace

TempDir::TempDir(const std::string &Prefix, const std::string &Base) {
  std::string Dir = Base;
  if (Dir.empty()) {
    const char *Env = std::getenv("TMPDIR");
    Dir = Env && *Env ? Env : "/tmp";
  }
  std::string Template = Dir + "/" + Prefix + "XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  if (mkdtemp(Buf.data()))
    Path.assign(Buf.data());
}

TempDir::~TempDir() {
  if (!Path.empty())
    removeTree(Path);
}

TempDir::TempDir(TempDir &&Other) noexcept : Path(std::move(Other.Path)) {
  Other.Path.clear();
}

TempDir &TempDir::operator=(TempDir &&Other) noexcept {
  if (this != &Other) {
    if (!Path.empty())
      removeTree(Path);
    Path = std::move(Other.Path);
    Other.Path.clear();
  }
  return *this;
}

std::string TempDir::release() {
  std::string P = std::move(Path);
  Path.clear();
  return P;
}

} // namespace support
} // namespace locus
