//===- Worker.h - Tuning-service worker loop ---------------------*- C++ -*-===//
///
/// \file
/// The worker side of the tuning service: claim -> evaluate -> result ->
/// repeat, heartbeating while an evaluation runs so the coordinator can
/// tell "slow" from "dead". A worker holds no state the queue does not —
/// killing one at any instruction loses at most the evaluation in flight,
/// which the lease machinery reassigns.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SERVICE_WORKER_H
#define LOCUS_SERVICE_WORKER_H

#include "src/search/Search.h"
#include "src/service/TaskQueue.h"
#include "src/support/Error.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace locus {
namespace service {

struct WorkerOptions {
  std::string QueueDir;
  std::string WorkerId = "worker";
  /// When nonzero, refuse a queue whose header pins a different space
  /// fingerprint (located diagnostic instead of garbage evaluations).
  uint64_t SpaceFingerprint = 0;
  /// Heartbeat period while an evaluation runs.
  double HeartbeatSeconds = 0.5;
  /// Fallback wake period while waiting for claimable tasks: an idle worker
  /// wakes on the queue's doorbell as soon as a record is appended, and
  /// re-scans after this long even if it never rings.
  double PollSeconds = 0.02;
  /// Exit after this many evaluated tasks; 0 = until shutdown record.
  uint64_t MaxTasks = 0;
  /// Test hook: stop heartbeating after this many beats per task (>= 0)
  /// to simulate a worker that stalls mid-evaluation; -1 = unlimited.
  int MaxHeartbeatsPerTask = -1;
  /// Cooperative stop (support::shutdownFlag()).
  const std::atomic<bool> *StopFlag = nullptr;
  /// Test hook invoked after a claim is won, before evaluation.
  std::function<void(uint64_t TaskId)> OnClaim;
};

struct WorkerStats {
  uint64_t TasksEvaluated = 0;
  uint64_t ClaimsLost = 0; ///< optimistic claims beaten by another worker
  uint64_t Heartbeats = 0;
};

/// Runs the worker loop until the queue's shutdown record, StopFlag, or
/// MaxTasks. Obj must be the same deterministic objective the in-process
/// run would use — that equivalence is what makes serve-mode trajectories
/// bit-identical to local ones.
Expected<WorkerStats> runWorker(const search::Space &Space,
                                search::Objective &Obj,
                                const WorkerOptions &Opts);

} // namespace service
} // namespace locus

#endif // LOCUS_SERVICE_WORKER_H
