//===- Subprocess.cpp - Sandboxed subprocess execution --------------------===//

#include "src/support/Subprocess.h"

#include "src/support/Posix.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
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

/// Signals the child's whole process group (falling back to the child alone
/// if the group is already gone).
void signalGroup(pid_t Pid, int Sig) {
  if (kill(-Pid, Sig) != 0)
    kill(Pid, Sig);
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

SubprocessResult runSubprocess(const SubprocessOptions &Opts) {
  SubprocessResult Res;
  if (Opts.Argv.empty()) {
    Res.SpawnError = "empty argv";
    return Res;
  }

  int OutPipe[2], ErrPipe[2], StatusPipe[2];
  if (pipe(OutPipe) != 0) {
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    return Res;
  }
  if (pipe(ErrPipe) != 0) {
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    close(OutPipe[0]); close(OutPipe[1]);
    return Res;
  }
  // exec-failure reporting channel: CLOEXEC, so a successful exec closes it
  // silently and a failed exec writes errno through it.
  if (pipe(StatusPipe) != 0 ||
      fcntl(StatusPipe[1], F_SETFD, FD_CLOEXEC) != 0) {
    Res.SpawnError = std::string("pipe: ") + std::strerror(errno);
    close(OutPipe[0]); close(OutPipe[1]);
    close(ErrPipe[0]); close(ErrPipe[1]);
    return Res;
  }

  // argv built before fork: only async-signal-safe calls after it.
  std::vector<char *> Argv;
  Argv.reserve(Opts.Argv.size() + 1);
  for (const std::string &A : Opts.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  double Start = monotonicSeconds();
  pid_t Pid = fork();
  if (Pid < 0) {
    Res.SpawnError = std::string("fork: ") + std::strerror(errno);
    for (int Fd : {OutPipe[0], OutPipe[1], ErrPipe[0], ErrPipe[1],
                   StatusPipe[0], StatusPipe[1]})
      close(Fd);
    return Res;
  }

  if (Pid == 0) {
    // Child. Own process group, so the watchdog's group-kill reaps every
    // descendant (compiler cc1/ld children, forked variant children).
    setpgid(0, 0);
    applyLimits(Opts.Limits);
    int DevNull = open("/dev/null", O_RDONLY);
    if (DevNull >= 0)
      dup2(DevNull, STDIN_FILENO);
    dup2(OutPipe[1], STDOUT_FILENO);
    dup2(ErrPipe[1], STDERR_FILENO);
    close(OutPipe[0]); close(OutPipe[1]);
    close(ErrPipe[0]); close(ErrPipe[1]);
    close(StatusPipe[0]);
    if (!Opts.WorkDir.empty() && chdir(Opts.WorkDir.c_str()) != 0) {
      int Err = errno;
      ssize_t Ignored = write(StatusPipe[1], &Err, sizeof(Err));
      (void)Ignored;
      _exit(127);
    }
    execvp(Argv[0], Argv.data());
    int Err = errno;
    ssize_t Ignored = write(StatusPipe[1], &Err, sizeof(Err));
    (void)Ignored;
    _exit(127);
  }

  // Parent. Mirror the child's setpgid to close the fork/exec race: until
  // one of the two calls lands, a group-kill could miss the child.
  setpgid(Pid, Pid);
  close(OutPipe[1]);
  close(ErrPipe[1]);
  close(StatusPipe[1]);
  setNonBlocking(OutPipe[0]);
  setNonBlocking(ErrPipe[0]);

  bool OutOpen = true, ErrOpen = true;
  bool Reaped = false;
  int WaitStatus = 0;
  enum { Running, TermSent, KillSent } Watchdog = Running;
  double Deadline = Opts.Limits.WallClockSeconds > 0
                        ? Start + Opts.Limits.WallClockSeconds
                        : 0;
  double Escalation = 0; // SIGKILL time once SIGTERM has been sent
  double ReapedAt = 0;
  bool TimedOut = false;

  while (OutOpen || ErrOpen || !Reaped) {
    double Now = monotonicSeconds();

    if (!Reaped) {
      pid_t W = waitpid(Pid, &WaitStatus, WNOHANG);
      if (W == Pid) {
        Reaped = true;
        ReapedAt = Now;
      }
    }
    if (Reaped && !OutOpen && !ErrOpen)
      break;

    // Watchdog: deadline -> SIGTERM the group; grace -> SIGKILL.
    if (!Reaped && Deadline > 0 && Watchdog == Running && Now >= Deadline) {
      TimedOut = true;
      signalGroup(Pid, SIGTERM);
      Watchdog = TermSent;
      Escalation = Now + std::max(0.0, Opts.Limits.TermGraceSeconds);
    }
    if (!Reaped && Watchdog == TermSent && Now >= Escalation) {
      signalGroup(Pid, SIGKILL);
      Res.TermEscalated = true;
      Watchdog = KillSent;
    }
    // A grandchild that escaped its group can hold the pipes open after the
    // child is gone; don't wait on it forever.
    if (Reaped && Now - ReapedAt > 1.0)
      break;

    pollfd Fds[2];
    nfds_t N = 0;
    if (OutOpen)
      Fds[N++] = {OutPipe[0], POLLIN, 0};
    if (ErrOpen)
      Fds[N++] = {ErrPipe[0], POLLIN, 0};

    int TimeoutMs = 50;
    if (!Reaped && Watchdog == Running && Deadline > 0)
      TimeoutMs = std::min(TimeoutMs,
                           std::max(1, static_cast<int>((Deadline - Now) * 1000)));
    else if (!Reaped && Watchdog == TermSent)
      TimeoutMs = std::min(TimeoutMs,
                           std::max(1, static_cast<int>((Escalation - Now) * 1000)));

    if (N == 0) {
      // Pipes closed, child alive: just wait for it (bounded by watchdog).
      struct timespec Ts = {0, TimeoutMs * 1000000};
      nanosleep(&Ts, nullptr);
      continue;
    }
    int PollRet = retryPoll(Fds, N, TimeoutMs);
    if (PollRet < 0)
      break;
    for (nfds_t I = 0; I < N; ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      bool IsOut = Fds[I].fd == OutPipe[0];
      bool Alive = drainPipe(Fds[I].fd, IsOut ? Res.Stdout : Res.Stderr,
                             Opts.Limits.MaxCaptureBytes,
                             IsOut ? Res.StdoutTruncated : Res.StderrTruncated);
      if (!Alive) {
        close(Fds[I].fd);
        (IsOut ? OutOpen : ErrOpen) = false;
      }
    }
  }
  if (OutOpen)
    close(OutPipe[0]);
  if (ErrOpen)
    close(ErrPipe[0]);
  if (!Reaped) {
    // Loop exited abnormally (poll error): make sure the child dies. The
    // EINTR-safe wait matters here — a signal landing mid-reap would leave
    // the child a zombie and WaitStatus uninitialized.
    signalGroup(Pid, SIGKILL);
    retryWaitpid(Pid, &WaitStatus, 0);
  }
  // Sweep stragglers: any group member still alive after the child was
  // reaped (killed-but-lingering descendants on the timeout path, or
  // children the variant forked and never waited for). ESRCH when the
  // group is already empty — the common case — is harmless.
  kill(-Pid, SIGKILL);

  Res.ElapsedSeconds = monotonicSeconds() - Start;

  // Spawn failure takes priority: errno arrives through the CLOEXEC pipe.
  int ExecErr = 0;
  ssize_t StatusN = retryRead(StatusPipe[0], &ExecErr, sizeof(ExecErr));
  close(StatusPipe[0]);
  if (StatusN == static_cast<ssize_t>(sizeof(ExecErr))) {
    Res.Exit = SpawnExit::SpawnFailed;
    Res.SpawnError = Opts.Argv[0] + ": " + std::strerror(ExecErr);
    return Res;
  }

  if (WIFEXITED(WaitStatus)) {
    Res.Exit = SpawnExit::Exited;
    Res.ExitCode = WEXITSTATUS(WaitStatus);
  } else if (WIFSIGNALED(WaitStatus)) {
    Res.Exit = SpawnExit::Signaled;
    Res.Signal = WTERMSIG(WaitStatus);
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
    : Pid(Other.Pid), Reaped(Other.Reaped), WaitStatus(Other.WaitStatus) {
  Other.Pid = -1;
}

ChildProcess &ChildProcess::operator=(ChildProcess &&Other) noexcept {
  if (this != &Other) {
    kill();
    Pid = Other.Pid;
    Reaped = Other.Reaped;
    WaitStatus = Other.WaitStatus;
    Other.Pid = -1;
  }
  return *this;
}

Expected<ChildProcess> ChildProcess::spawn(const ChildProcessOptions &Opts) {
  if (Opts.Argv.empty())
    return Expected<ChildProcess>::error("empty argv");

  int StatusPipe[2];
  if (pipe(StatusPipe) != 0 ||
      fcntl(StatusPipe[1], F_SETFD, FD_CLOEXEC) != 0)
    return Expected<ChildProcess>::error(std::string("pipe: ") +
                                         std::strerror(errno));

  std::vector<char *> Argv;
  Argv.reserve(Opts.Argv.size() + 1);
  for (const std::string &A : Opts.Argv)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t ParentPid = getpid();
  pid_t Pid = fork();
  if (Pid < 0) {
    int Err = errno;
    close(StatusPipe[0]);
    close(StatusPipe[1]);
    return Expected<ChildProcess>::error(std::string("fork: ") +
                                         std::strerror(Err));
  }

  if (Pid == 0) {
    // Child: own group (group-kill supervision), then bind its lifetime to
    // the parent's so a SIGKILLed supervisor cannot orphan it.
    setpgid(0, 0);
    close(StatusPipe[0]);
    auto Die = [&](int Err) {
      ssize_t Ignored = write(StatusPipe[1], &Err, sizeof(Err));
      (void)Ignored;
      _exit(127);
    };
#ifdef __linux__
    if (Opts.KillOnParentDeath) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      // Close the fork/prctl race: if the parent died before the death
      // signal was armed, the child has been reparented already.
      if (getppid() != ParentPid)
        Die(ESRCH);
    }
#else
    (void)ParentPid;
#endif
    int DevNull = open("/dev/null", O_RDONLY);
    if (DevNull >= 0)
      dup2(DevNull, STDIN_FILENO);
    if (!Opts.OutputPath.empty()) {
      int Out = open(Opts.OutputPath.c_str(),
                     O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
      if (Out < 0)
        Die(errno);
      dup2(Out, STDOUT_FILENO);
      dup2(Out, STDERR_FILENO);
      close(Out);
    }
    if (!Opts.WorkDir.empty() && chdir(Opts.WorkDir.c_str()) != 0)
      Die(errno);
    execvp(Argv[0], Argv.data());
    Die(errno);
  }

  // Parent: mirror setpgid (same race as runSubprocess), then block on the
  // status pipe — EOF means the exec succeeded.
  setpgid(Pid, Pid);
  close(StatusPipe[1]);
  int ExecErr = 0;
  ssize_t StatusN = retryRead(StatusPipe[0], &ExecErr, sizeof(ExecErr));
  close(StatusPipe[0]);
  if (StatusN == static_cast<ssize_t>(sizeof(ExecErr))) {
    int IgnoredStatus = 0;
    retryWaitpid(Pid, &IgnoredStatus, 0); // reap the _exit(127) child
    return Expected<ChildProcess>::error(Opts.Argv[0] + ": " +
                                         std::strerror(ExecErr));
  }

  ChildProcess CP;
  CP.Pid = Pid;
  return CP;
}

bool ChildProcess::running() {
  if (Pid <= 0)
    return false;
  if (!Reaped && retryWaitpid(Pid, &WaitStatus, WNOHANG) == Pid)
    Reaped = true;
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

bool ChildProcess::waitExit(double TimeoutSeconds) {
  double Deadline = monotonicSeconds() + TimeoutSeconds;
  // A pidfd turns readable the moment the child exits, so the wait ends
  // there rather than at the next 5 ms tick. Kernels or sandboxes without
  // pidfd_open (ENOSYS, EPERM) keep the sleep loop.
  int PidFd = -1;
#ifdef SYS_pidfd_open
  if (running())
    PidFd = static_cast<int>(::syscall(SYS_pidfd_open, Pid, 0));
#endif
  bool Exited = true;
  while (running()) {
    double Left = Deadline - monotonicSeconds();
    if (Left <= 0) {
      Exited = false;
      break;
    }
    struct pollfd P = {PidFd, POLLIN, 0};
    int WaitMs = static_cast<int>(std::min(std::ceil(Left * 1000), 1e9));
    if (PidFd >= 0 && retryPoll(&P, 1, WaitMs) >= 0)
      continue;
    closeQuietly(PidFd); // no pidfd, or poll refused it: sleep instead
    PidFd = -1;
    struct timespec Ts = {0, 5 * 1000000};
    nanosleep(&Ts, nullptr);
  }
  closeQuietly(PidFd);
  return Exited && Pid > 0;
}

void ChildProcess::kill() {
  if (Pid <= 0)
    return;
  if (!Reaped) {
    if (::kill(-Pid, SIGKILL) != 0)
      ::kill(Pid, SIGKILL);
    retryWaitpid(Pid, &WaitStatus, 0);
    Reaped = true;
  }
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
