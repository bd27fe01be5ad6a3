//===- Coordinator.h - Tuning-service coordinator ----------------*- C++ -*-===//
///
/// \file
/// The coordinator side of the sharded tuning service. The searcher loop
/// runs unchanged in the coordinator process; every point the evaluation
/// pool would have assessed in-process is instead announced on the durable
/// TaskQueue, evaluated by a supervised worker process, and the result
/// folded back — in proposal order, because the pool already commits in
/// proposal order. Workers evaluate the same deterministic objective the
/// in-process run would, so `--serve --workers N` replays the bit-identical
/// trajectory (points, metrics, best, journal bytes) of `--jobs 1`.
///
/// Robustness model: every worker is treated as about to die.
///  - Leases expire when their worker stops appending heartbeats; expiry is
///    judged by the coordinator's *local monotonic arrival clock* (no
///    timestamps in the file, so worker clock skew cannot matter), and the
///    task is reassigned — a SIGKILLed, hung, or OOM'd worker loses time,
///    never work.
///  - Worker processes are spawned through ChildProcess (own process group,
///    parent-death SIGKILL) and respawned with exponential backoff; a slot
///    that keeps dying is eventually retired.
///  - A task on which PoisonWorkerDeaths *distinct* workers died is
///    quarantined: it completes as a RuntimeTrap failure in the normal
///    failure taxonomy instead of hanging the search.
///  - When no worker survives (all slots retired, no external activity),
///    the coordinator degrades to in-process evaluation on the waiting
///    pool threads — the search always finishes.
///  - A coordinator crash loses nothing: at start the existing queue is
///    folded and every accepted result becomes a recovered outcome served
///    without re-evaluation.
///
/// One coordinator per queue directory, enforced with a non-blocking flock
/// on <dir>/coordinator.lock; a second coordinator is refused with a
/// located diagnostic.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SERVICE_COORDINATOR_H
#define LOCUS_SERVICE_COORDINATOR_H

#include "src/search/Search.h"
#include "src/service/TaskQueue.h"
#include "src/support/Error.h"
#include "src/support/Posix.h"
#include "src/support/Subprocess.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace locus {
namespace service {

/// The flag a coordinator appends, followed by the worker's id
/// ("w<slot>.<attempt>"), to every worker argv it spawns; every worker
/// binary accepts it.
inline constexpr const char *WorkerIdFlag = "--worker-id";

struct CoordinatorOptions {
  /// Queue directory (created if missing): queue.rlog, coordinator.lock,
  /// worker-<slot>.log.
  std::string QueueDir;
  /// Pin the queue to one space + search config (mirrors the journal
  /// header); a queue dir written under a different pair is refused.
  uint64_t SpaceFingerprint = 0;
  uint64_t ConfigDigest = 0;
  /// Worker processes to spawn and supervise. 0 spawns none: external
  /// workers (`locus_cli --worker`) may serve the queue instead.
  int Workers = 0;
  /// Argv factory for slot spawns (coordinator appends
  /// `WorkerIdFlag w<slot>.<attempt>` itself). Attempt counts respawns, so a
  /// crash-injection flag can be limited to a slot's first incarnation.
  /// Empty means no managed workers regardless of Workers.
  std::function<std::vector<std::string>(int Slot, int Attempt)> WorkerArgv;
  /// A claimed task whose lease shows no lease/heartbeat arrival for this
  /// long is expired and reassigned.
  double LeaseTimeoutSeconds = 10.0;
  /// Fallback supervision period: the supervisor wakes on the queue's
  /// doorbell whenever a record is appended, and otherwise after this long
  /// for its timer-driven checks (lease expiry, worker liveness, respawn
  /// backoff, degradation).
  double PollSeconds = 0.02;
  /// Quarantine a task after this many distinct workers died holding it.
  int PoisonWorkerDeaths = 3;
  /// Consecutive deaths after which a slot is retired for good.
  int MaxRespawnsPerSlot = 4;
  /// Respawn backoff: Base * 2^(consecutive deaths - 1), capped at 4 s.
  double RespawnBackoffSeconds = 0.25;
  /// With no live or respawnable managed worker and no external queue
  /// activity for this long, degrade to in-process evaluation; negative
  /// uses LeaseTimeoutSeconds.
  double DegradeGraceSeconds = -1;
  /// Cooperative stop (support::shutdownFlag()): waiting assessments fall
  /// back to local evaluation so a Ctrl-C never hangs on a dead fleet.
  const std::atomic<bool> *StopFlag = nullptr;
};

/// Counters surfaced into SearchWorkflowResult and the CLI summary.
struct ServiceStats {
  uint64_t TasksSubmitted = 0;      ///< assess() calls entering the service
  uint64_t WorkerResults = 0;       ///< outcomes accepted from workers
  uint64_t RecoveredResults = 0;    ///< served from the pre-crash queue fold
  uint64_t LocalFallbackEvals = 0;  ///< evaluated in-process (degraded/stop)
  uint64_t LeaseExpiries = 0;       ///< leases expired or death-reassigned
  uint64_t StaleResultsDiscarded = 0; ///< first-writer-wins losers
  uint64_t WorkerDeaths = 0;
  uint64_t WorkerRespawns = 0;
  uint64_t QuarantinedTasks = 0;
  int WorkersSpawned = 0; ///< total spawns including respawns
  bool Degraded = false;
};

class Coordinator {
public:
  /// Acquires the coordinator lock, opens (or recovers) the queue, folds
  /// existing results into the recovered store, and starts the supervision
  /// thread. Heap-allocated because the thread captures `this`.
  static Expected<std::unique_ptr<Coordinator>> start(CoordinatorOptions Opts);
  ~Coordinator();
  Coordinator(const Coordinator &) = delete;
  Coordinator &operator=(const Coordinator &) = delete;

  /// Evaluates one point through the service: recovered result if the
  /// pre-crash queue already holds it, otherwise announce + block until a
  /// worker's accepted result arrives. Falls back to evaluating on the
  /// calling thread via Fallback when the service is degraded, stopping,
  /// or the queue is unwritable. Thread-safe; called concurrently by the
  /// evaluation pool.
  search::EvalOutcome assess(const search::Point &P,
                             search::Objective &Fallback);

  /// Appends the shutdown record, stops the supervision thread, and winds
  /// down managed workers (SIGTERM, grace, SIGKILL). Idempotent; also run
  /// by the destructor.
  void shutdown();

  ServiceStats stats() const;
  const CoordinatorOptions &options() const { return Opts; }

private:
  explicit Coordinator(CoordinatorOptions Opts);
  Status init();
  void superviseLoop();
  void pollQueue();
  void sweepFulfill();
  void superviseLeases(double Now);
  void superviseSlots(double Now);
  void maybeDegrade(double Now);
  void attributeDeath(uint64_t TaskId, const std::string &WorkerId);
  bool stopRequested() const {
    return Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed);
  }

  struct PendingTask {
    bool Done = false;
    search::EvalOutcome Out;
  };

  struct Slot {
    support::ChildProcess Proc;
    bool Spawned = false;
    int Attempts = 0;          ///< spawns so far
    int ConsecutiveDeaths = 0; ///< reset by an accepted result
    double NextSpawnAt = 0;
    bool Retired = false;
    std::string WorkerId; ///< current incarnation ("w<slot>.<attempt>")
  };

  CoordinatorOptions Opts;
  support::FileLock OwnerLock; ///< <dir>/coordinator.lock, held while live
  TaskQueue Queue;

  // Guarded by M: the waiting-assessment rendezvous and the stats.
  mutable std::mutex M;
  std::condition_variable Cv;
  std::map<uint64_t, PendingTask> Pending;
  uint64_t NextTaskId = 1;
  ServiceStats Stats;

  /// Point text -> accepted outcome folded from a pre-existing queue;
  /// immutable after init() (crash-proof work reassignment: finished but
  /// unjournaled evaluations are never redone).
  std::map<std::string, search::EvalOutcome> Recovered;

  std::atomic<bool> ShuttingDown{false};
  std::atomic<bool> DegradedFlag{false};

  // Supervision-thread state (owned by superviseLoop after init).
  QueueState State;
  std::map<uint64_t, double> LeaseActivity; ///< task -> arrival clock
  std::map<uint64_t, std::set<std::string>> DeathSets;
  std::set<std::string> DeadWorkerIds;
  std::set<std::pair<uint64_t, uint64_t>> ExpireInFlight;
  std::set<uint64_t> QuarantineInFlight;
  std::vector<Slot> Slots;
  double StartTime = 0;
  double LastQueueActivity = 0;
  std::thread Supervisor;
};

/// The search-side adapter: a concurrency-safe BatchObjective whose assess
/// dispatches to the coordinator, with the in-process objective as the
/// degradation fallback. The searcher takes it exactly where it would take
/// the local objective: identical outcomes mean identical trajectories,
/// which is the whole determinism argument.
class DistributedObjective : public search::BatchObjective {
public:
  DistributedObjective(Coordinator &C, search::Objective &Fallback)
      : C(C), Fallback(Fallback) {}
  search::EvalOutcome assess(const search::Point &P) override {
    return C.assess(P, Fallback);
  }

private:
  Coordinator &C;
  search::Objective &Fallback;
};

} // namespace service
} // namespace locus

#endif // LOCUS_SERVICE_COORDINATOR_H
