//===- Posix.h - EINTR-safe syscall wrappers ---------------------*- C++ -*-===//
///
/// \file
/// Retry wrappers for the blocking POSIX calls the rest of the codebase
/// issues. The tuning service makes interrupted syscalls routine — worker
/// heartbeat timers, SIGTERM graceful-shutdown handlers and SIGCHLD all
/// land while a read/poll/flock/waitpid is parked — so every blocking call
/// must treat EINTR as "try again", not as an error. Centralizing the loops
/// here keeps RecordLog and Subprocess free of hand-rolled variants.
///
/// All wrappers preserve the underlying call's return-value contract; only
/// EINTR is absorbed. Timeouts (retryPoll) are re-armed against a monotonic
/// deadline so a signal storm cannot extend the wait.
///
/// Two small owners of kernel objects live here too: FileLock (an flock
/// held for an object's lifetime) and Doorbell (a futex word shared through
/// a file, the tuning service's cross-process wake-up).
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_POSIX_H
#define LOCUS_SUPPORT_POSIX_H

#include "src/support/Error.h"

#include <cstdint>
#include <poll.h>
#include <string>
#include <sys/types.h>
#include <utility>

namespace locus {
namespace support {

/// read(2) retried on EINTR. Returns the read count, 0 at EOF, or -1 with
/// errno set (never EINTR).
ssize_t retryRead(int Fd, void *Buf, size_t Len);

/// Writes the whole buffer, retrying on EINTR and short writes. Returns
/// true when every byte reached the fd; on failure *Written (optional)
/// holds the byte count that did land, so callers can amputate a torn
/// record.
bool retryWriteAll(int Fd, const char *Data, size_t Len,
                   size_t *Written = nullptr);

/// Reads the fd to EOF into Out (appending), retrying on EINTR. Returns
/// false on a read error.
bool retryReadToEnd(int Fd, std::string &Out);

/// poll(2) retried on EINTR with the timeout re-armed against a monotonic
/// deadline (a negative timeout waits forever). Returns poll's result.
int retryPoll(struct pollfd *Fds, nfds_t NFds, int TimeoutMs);

/// flock(2) retried on EINTR. A negative fd returns 0 (callers treat a
/// missing lock file as "nothing to lock").
int retryFlock(int Fd, int Operation);

/// waitpid(2) retried on EINTR. Without the retry a signal delivered while
/// the parent blocks leaves the child unreaped and the status word
/// uninitialized.
pid_t retryWaitpid(pid_t Pid, int *Status, int Options);

/// open(2) retried on EINTR (open can be interrupted on slow devices and
/// when O_CREAT contends).
int retryOpen(const char *Path, int Flags, mode_t Mode = 0);

/// CLOCK_MONOTONIC in seconds: the clock every liveness and timeout
/// judgement uses (never wall time, which can jump).
double monotonicSeconds();

/// close(2), EINTR-tolerant: POSIX leaves the fd state unspecified after
/// EINTR, and retrying risks closing a recycled descriptor, so the wrapper
/// closes once and ignores EINTR (Linux semantics: the fd is released).
void closeQuietly(int Fd);

/// A non-blocking exclusive flock on a sidecar file, held for the object's
/// lifetime: the one-owner rule for a durable store (a journal, a queue
/// dir's coordinator). The lock rides the open fd (close-on-exec), so any
/// holder's death, SIGKILL included, releases it.
class FileLock {
public:
  FileLock() = default;
  FileLock(FileLock &&O) noexcept : Fd(std::exchange(O.Fd, -1)) {}
  FileLock &operator=(FileLock O) noexcept {
    std::swap(Fd, O.Fd);
    return *this;
  }
  ~FileLock() { closeQuietly(Fd); }

  /// Creates \p Path if needed and locks it. Refused when the file cannot
  /// be created, or with "<Held> (flock held on <Path>)" when another live
  /// open file description holds the lock.
  static Expected<FileLock> acquire(const std::string &Path,
                                    const std::string &Held);

private:
  int Fd = -1;
};

/// A cross-process wake-up: one 32-bit counter in a small MAP_SHARED file.
/// ring() increments it and FUTEX_WAKEs every waiter; wait(Seen, T) sleeps
/// in FUTEX_WAIT until the counter differs from Seen, or T passes. A waiter
/// that samples the counter *before* it looks for work cannot miss a ring
/// that follows the look: the counter has moved, so the wait returns at
/// once. Threads and processes that map the same file share the futex.
///
/// An invalid (default or moved-from) doorbell rings nowhere and waits by
/// sleeping the timeout: polling is the fallback wherever the file cannot
/// be created or mapped.
class Doorbell {
public:
  Doorbell() = default;
  Doorbell(Doorbell &&O) noexcept : Word(std::exchange(O.Word, nullptr)) {}
  Doorbell &operator=(Doorbell O) noexcept {
    std::swap(Word, O.Word);
    return *this;
  }
  ~Doorbell();

  /// Maps the counter at \p Path, creating the file if needed. Refused
  /// when the file cannot be opened, sized or mapped (a directory, a
  /// read-only or mmap-less filesystem).
  static Expected<Doorbell> open(const std::string &Path);

  /// The counter now (0 when invalid).
  uint32_t sample() const;
  /// Increments the counter and wakes every waiter.
  void ring() const;
  /// Returns once the counter differs from Seen, after TimeoutSeconds, or
  /// early on a signal (callers re-check their condition and loop).
  void wait(uint32_t Seen, double TimeoutSeconds) const;

private:
  uint32_t *Word = nullptr;
};

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_POSIX_H
