//===- Posix.cpp - EINTR-safe syscall wrappers ----------------------------===//

#include "src/support/Posix.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fcntl.h>
#include <linux/futex.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/syscall.h>
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

struct timespec toTimespec(double Seconds) {
  double Whole = std::floor(Seconds = std::max(0.0, Seconds));
  return {static_cast<time_t>(Whole),
          static_cast<long>((Seconds - Whole) * 1e9)};
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

Doorbell::~Doorbell() {
  if (Word)
    ::munmap(Word, sizeof(*Word));
}

Expected<Doorbell> Doorbell::open(const std::string &Path) {
  int Fd = retryOpen(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0)
    return Expected<Doorbell>::error("cannot open doorbell " + Path + ": " +
                                     std::strerror(errno));
  // Only a fresh file is sized: openers racing here all extend it to the
  // same zero word, and a live counter is never truncated.
  struct stat St;
  bool Sized = ::fstat(Fd, &St) == 0 &&
               (St.st_size >= static_cast<off_t>(sizeof(uint32_t)) ||
                ::ftruncate(Fd, sizeof(uint32_t)) == 0);
  void *Map = Sized ? ::mmap(nullptr, sizeof(uint32_t), PROT_READ | PROT_WRITE,
                             MAP_SHARED, Fd, 0)
                    : MAP_FAILED;
  int Err = errno;
  closeQuietly(Fd); // the mapping keeps the file alive
  if (Map == MAP_FAILED)
    return Expected<Doorbell>::error("cannot map doorbell " + Path + ": " +
                                     std::strerror(Err));
  Doorbell B;
  B.Word = static_cast<uint32_t *>(Map);
  return B;
}

uint32_t Doorbell::sample() const {
  return Word ? std::atomic_ref<uint32_t>(*Word).load(std::memory_order_acquire)
              : 0;
}

void Doorbell::ring() const {
  if (!Word)
    return;
  std::atomic_ref<uint32_t>(*Word).fetch_add(1, std::memory_order_acq_rel);
  ::syscall(SYS_futex, Word, FUTEX_WAKE, INT_MAX, nullptr, nullptr, 0);
}

void Doorbell::wait(uint32_t Seen, double TimeoutSeconds) const {
  struct timespec Ts = toTimespec(TimeoutSeconds);
  if (!Word) {
    while (::nanosleep(&Ts, &Ts) != 0 && errno == EINTR) {
    }
    return;
  }
  // EAGAIN (the counter already moved), ETIMEDOUT and EINTR all return:
  // the caller re-scans whatever the bell guards either way.
  ::syscall(SYS_futex, Word, FUTEX_WAIT, Seen, &Ts, nullptr, 0);
}

} // namespace support
} // namespace locus
