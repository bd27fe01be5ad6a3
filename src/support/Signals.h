//===- Signals.h - Graceful-shutdown signal flag -----------------*- C++ -*-===//
///
/// \file
/// Cooperative SIGTERM/SIGINT handling for long-running search and service
/// processes. The handler does the only async-signal-safe thing possible —
/// it sets a process-wide atomic flag — and every loop that matters
/// (EvalDriver::budgetLeft, the coordinator's supervision thread, the
/// worker's claim loop) polls it between iterations. Stopping between
/// iterations means the journal's last record is complete and fsynced and
/// every flock is released by the normal destructors: a clean partial
/// result instead of a torn append.
///
/// Handlers are installed without SA_RESTART so a parked read/poll/flock
/// returns EINTR and the loop notices the flag promptly; the EINTR-retry
/// wrappers in Posix.h keep that interruption harmless everywhere else.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_SIGNALS_H
#define LOCUS_SUPPORT_SIGNALS_H

#include <atomic>

namespace locus {
namespace support {

/// Installs SIGTERM + SIGINT handlers that set the shutdown flag. Safe to
/// call more than once. The second delivery of the same signal falls back
/// to the default disposition, so a stuck process can still be killed with
/// a repeated Ctrl-C.
void installShutdownFlag();

/// The flag the handlers set; pass into SearchOptions::StopFlag /
/// CoordinatorOptions::StopFlag.
const std::atomic<bool> *shutdownFlag();

} // namespace support
} // namespace locus

#endif // LOCUS_SUPPORT_SIGNALS_H
