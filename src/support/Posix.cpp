//===- Posix.cpp - EINTR-safe syscall wrappers ----------------------------===//

#include "src/support/Posix.h"

#include <cerrno>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

namespace locus {
namespace support {

namespace {

long long monotonicMs() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<long long>(Ts.tv_sec) * 1000 + Ts.tv_nsec / 1000000;
}

} // namespace

ssize_t retryRead(int Fd, void *Buf, size_t Len) {
  for (;;) {
    ssize_t N = ::read(Fd, Buf, Len);
    if (N >= 0 || errno != EINTR)
      return N;
  }
}

bool retryWriteAll(int Fd, const char *Data, size_t Len, size_t *Written) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::write(Fd, Data + Off, Len - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) { // a 0-byte write would loop forever; treat it as an error
      if (Written)
        *Written = Off;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  if (Written)
    *Written = Off;
  return true;
}

bool retryReadToEnd(int Fd, std::string &Out) {
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = retryRead(Fd, Buf, sizeof(Buf));
    if (N < 0)
      return false;
    if (N == 0)
      return true;
    Out.append(Buf, static_cast<size_t>(N));
  }
}

int retryPoll(struct pollfd *Fds, nfds_t NFds, int TimeoutMs) {
  if (TimeoutMs < 0) {
    for (;;) {
      int R = ::poll(Fds, NFds, -1);
      if (R >= 0 || errno != EINTR)
        return R;
    }
  }
  long long Deadline = monotonicMs() + TimeoutMs;
  int Remaining = TimeoutMs;
  for (;;) {
    int R = ::poll(Fds, NFds, Remaining);
    if (R >= 0 || errno != EINTR)
      return R;
    long long Now = monotonicMs();
    if (Now >= Deadline)
      return 0; // timed out across interruptions
    Remaining = static_cast<int>(Deadline - Now);
  }
}

int retryFlock(int Fd, int Operation) {
  if (Fd < 0)
    return 0;
  for (;;) {
    int R = ::flock(Fd, Operation);
    if (R == 0 || errno != EINTR)
      return R;
  }
}

pid_t retryWaitpid(pid_t Pid, int *Status, int Options) {
  for (;;) {
    pid_t R = ::waitpid(Pid, Status, Options);
    if (R >= 0 || errno != EINTR)
      return R;
  }
}

int retryOpen(const char *Path, int Flags, mode_t Mode) {
  for (;;) {
    int Fd = ::open(Path, Flags, Mode);
    if (Fd >= 0 || errno != EINTR)
      return Fd;
  }
}

double monotonicSeconds() {
  struct timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<double>(Ts.tv_sec) +
         1e-9 * static_cast<double>(Ts.tv_nsec);
}

void closeQuietly(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

Expected<FileLock> FileLock::acquire(const std::string &Path,
                                     const std::string &Held) {
  FileLock L;
  L.Fd = retryOpen(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (L.Fd < 0)
    return Expected<FileLock>::error("cannot create lock file " + Path +
                                     ": " + std::strerror(errno));
  if (retryFlock(L.Fd, LOCK_EX | LOCK_NB) != 0)
    return Expected<FileLock>::error(Held + " (flock held on " + Path + ")");
  return L;
}

} // namespace support
} // namespace locus
