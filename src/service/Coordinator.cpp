//===- Coordinator.cpp - Tuning-service coordinator -----------------------===//

#include "src/service/Coordinator.h"

#include "src/search/PointCodec.h"
#include "src/support/Hashing.h"
#include "src/support/Posix.h"

#include <algorithm>
#include <csignal>
#include <sys/stat.h>

namespace locus {
namespace service {

using support::monotonicSeconds;

Coordinator::Coordinator(CoordinatorOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.DegradeGraceSeconds < 0)
    this->Opts.DegradeGraceSeconds = this->Opts.LeaseTimeoutSeconds;
}

Expected<std::unique_ptr<Coordinator>>
Coordinator::start(CoordinatorOptions Opts) {
  std::unique_ptr<Coordinator> C(new Coordinator(std::move(Opts)));
  if (Status S = C->init(); !S.ok())
    return Expected<std::unique_ptr<Coordinator>>::error(S.message());
  return C;
}

Status Coordinator::init() {
  if (Opts.QueueDir.empty())
    return Status::error("coordinator requires a queue directory");
  // Best-effort dir creation; open failures below carry the diagnostics.
  ::mkdir(Opts.QueueDir.c_str(), 0755);

  // Single-coordinator exclusion: one authority per queue dir, enforced at
  // the kernel. The lock rides the open fd, so any coordinator death —
  // including SIGKILL — releases it.
  auto Lock = support::FileLock::acquire(
      Opts.QueueDir + "/coordinator.lock",
      "queue dir " + Opts.QueueDir + " is already served by a live coordinator");
  if (!Lock.ok())
    return Status::error(Lock.message() +
                         "; two coordinators must not share one queue");
  OwnerLock = std::move(*Lock);

  TaskQueueOptions QOpts;
  QOpts.Dir = Opts.QueueDir;
  QOpts.Header = {Opts.SpaceFingerprint, Opts.ConfigDigest};
  QOpts.FsyncEachRecord = Opts.FsyncEachRecord;
  auto Q = TaskQueue::open(QOpts);
  if (!Q.ok())
    return Status::error(Q.message());
  Queue = std::move(*Q);

  // Fold whatever a previous coordinator left behind. A shutdown record
  // from a *completed* run is compacted away first so workers don't retire
  // on sight; its tasks and results survive as the recovered store.
  auto Folded = Queue.poll(State);
  if (!Folded.ok())
    return Status::error(Folded.message());
  if (State.ShutdownSeen) {
    if (Status S = Queue.compactDropShutdown(); !S.ok())
      return S;
    State = QueueState{};
    if (auto Refolded = Queue.poll(State); !Refolded.ok())
      return Status::error(Refolded.message());
  }
  for (const auto &[Id, T] : State.Tasks) {
    NextTaskId = std::max(NextTaskId, Id + 1);
    if (T.Done)
      Recovered.emplace(T.PointText, T.Out);
  }
  {
    std::lock_guard<std::mutex> L(M);
    Stats.StaleResultsDiscarded = State.StaleResultsDiscarded;
  }

  StartTime = LastQueueActivity = monotonicSeconds();
  // Leases inherited from a crashed predecessor start their liveness clock
  // now: our own children died with the predecessor (parent-death signal),
  // but an *external* worker may still be heartbeating, so expiry waits
  // out a full timeout rather than firing blind.
  for (const auto &[Id, T] : State.Tasks)
    if (!T.Done && !T.LeaseWorker.empty())
      LeaseActivity[Id] = StartTime;

  if (Opts.WorkerArgv)
    Slots.resize(static_cast<size_t>(std::max(0, Opts.Workers)));

  Supervisor = std::thread([this] { superviseLoop(); });
  return Status::success();
}

Coordinator::~Coordinator() { shutdown(); }

ServiceStats Coordinator::stats() const {
  std::lock_guard<std::mutex> L(M);
  return Stats;
}

search::EvalOutcome Coordinator::assess(const search::Point &P,
                                        search::Objective &Fallback) {
  std::string Text = search::serializePoint(P);
  uint64_t Id = 0;
  {
    std::lock_guard<std::mutex> L(M);
    ++Stats.TasksSubmitted;
    auto It = Recovered.find(Text);
    if (It != Recovered.end()) {
      ++Stats.RecoveredResults;
      return It->second;
    }
    if (ShuttingDown.load() || DegradedFlag.load() || stopRequested()) {
      ++Stats.LocalFallbackEvals;
      Id = 0;
    } else {
      Id = NextTaskId++;
      Pending.try_emplace(Id);
    }
  }
  if (Id == 0)
    return Fallback.assess(P);

  Status S = Queue.announceTask(Id, Text, fnv1a(Text));
  if (!S.ok()) {
    // An unwritable queue must never stall the search; evaluate here.
    std::lock_guard<std::mutex> L(M);
    Pending.erase(Id);
    ++Stats.LocalFallbackEvals;
    return Fallback.assess(P);
  }

  std::unique_lock<std::mutex> L(M);
  PendingTask &PT = Pending[Id];
  Cv.wait(L, [&] {
    return PT.Done || DegradedFlag.load() || ShuttingDown.load() ||
           stopRequested();
  });
  if (PT.Done) {
    search::EvalOutcome Out = PT.Out;
    Pending.erase(Id);
    return Out;
  }
  // Degraded / stopping: the task stays on the queue (a late worker result
  // is harmless — the fold accepts it, nobody waits), we evaluate locally.
  Pending.erase(Id);
  ++Stats.LocalFallbackEvals;
  L.unlock();
  return Fallback.assess(P);
}

void Coordinator::shutdown() {
  bool WasShuttingDown = ShuttingDown.exchange(true);
  if (WasShuttingDown) {
    if (Supervisor.joinable())
      Supervisor.join();
    return;
  }
  (void)Queue.announceShutdown();
  Queue.ring(); // wakes the supervisor even if the record did not land
  Cv.notify_all();
  if (Supervisor.joinable())
    Supervisor.join();
  // Wind the fleet down: the shutdown record retires polite workers, the
  // SIGTERM reaches ones parked mid-evaluation, the ChildProcess destructor
  // SIGKILLs whatever is left.
  for (Slot &S : Slots)
    if (S.Spawned && S.Proc.running())
      S.Proc.signalGroup(SIGTERM);
  for (Slot &S : Slots)
    if (S.Spawned)
      (void)S.Proc.waitExit(2.0);
  Slots.clear();
}

void Coordinator::superviseLoop() {
  while (!ShuttingDown.load()) {
    pollQueue();
    sweepFulfill();
    double Now = monotonicSeconds();
    superviseLeases(Now);
    superviseSlots(Now);
    maybeDegrade(Now);
    if (stopRequested())
      Cv.notify_all(); // unblock waiters promptly on Ctrl-C/SIGTERM
    // shutdown() sets the flag before it rings, and pollQueue sampled the
    // bell before this check, so a shutdown cannot slip between the two.
    if (ShuttingDown.load())
      break;
    Queue.waitForAppend(State, Opts.PollSeconds);
  }
  // Final fold so stats reflect the last records (and late results land in
  // the fulfillment map for any still-blocked waiter).
  pollQueue();
  sweepFulfill();
  Cv.notify_all();
}

void Coordinator::pollQueue() {
  double Now = monotonicSeconds();
  auto Applied = Queue.poll(State, [&](const QueueRecord &R) {
    switch (R.K) {
    case QueueRecord::Kind::Lease: {
      LastQueueActivity = Now;
      const TaskState *T = State.find(R.Id);
      if (T && !T->Done && T->Epoch == R.Epoch && T->LeaseWorker == R.Worker) {
        LeaseActivity[R.Id] = Now;
        // A lease appended by a worker we already watched die (the claim
        // raced our death observation) is dead on arrival: reassign now
        // instead of waiting out the timeout, and charge the death set.
        if (DeadWorkerIds.count(R.Worker))
          attributeDeath(R.Id, R.Worker);
      }
      return;
    }
    case QueueRecord::Kind::Heartbeat: {
      LastQueueActivity = Now;
      const TaskState *T = State.find(R.Id);
      if (T && !T->Done && T->Epoch == R.Epoch && T->LeaseWorker == R.Worker)
        LeaseActivity[R.Id] = Now;
      return;
    }
    case QueueRecord::Kind::Result: {
      LastQueueActivity = Now;
      // An accepted result vouches for its worker: reset the owning slot's
      // death streak so one bad variant doesn't retire a healthy slot.
      for (Slot &S : Slots)
        if (S.Spawned && S.WorkerId == R.Worker)
          S.ConsecutiveDeaths = 0;
      return;
    }
    default:
      return;
    }
  });
  (void)Applied; // queue read errors are transient; the next tick retries
  std::lock_guard<std::mutex> L(M);
  Stats.StaleResultsDiscarded = State.StaleResultsDiscarded;
}

void Coordinator::sweepFulfill() {
  std::lock_guard<std::mutex> L(M);
  bool Woke = false;
  for (auto &[Id, PT] : Pending) {
    if (PT.Done)
      continue;
    const TaskState *T = State.find(Id);
    if (!T || !T->Done)
      continue;
    PT.Done = true;
    PT.Out = T->Out;
    if (T->Quarantined)
      ++Stats.QuarantinedTasks;
    else
      ++Stats.WorkerResults;
    Woke = true;
  }
  if (Woke)
    Cv.notify_all();
}

void Coordinator::superviseLeases(double Now) {
  for (const auto &[Id, T] : State.Tasks) {
    if (T.Done || T.LeaseWorker.empty())
      continue;
    auto It = LeaseActivity.find(Id);
    double Last = It != LeaseActivity.end() ? It->second : StartTime;
    if (Now - Last < Opts.LeaseTimeoutSeconds)
      continue;
    if (!ExpireInFlight.insert({Id, T.Epoch}).second)
      continue; // expiry already on the wire for this epoch
    if (Queue.expire(Id, T.Epoch).ok()) {
      std::lock_guard<std::mutex> L(M);
      ++Stats.LeaseExpiries;
    }
  }
}

void Coordinator::attributeDeath(uint64_t TaskId,
                                 const std::string &WorkerId) {
  const TaskState *T = State.find(TaskId);
  if (!T || T->Done)
    return;
  std::set<std::string> &DS = DeathSets[TaskId];
  DS.insert(WorkerId);
  if (static_cast<int>(DS.size()) >= std::max(1, Opts.PoisonWorkerDeaths)) {
    if (!QuarantineInFlight.insert(TaskId).second)
      return;
    std::string Detail = "task quarantined: " + std::to_string(DS.size()) +
                         " distinct workers died evaluating it (";
    bool First = true;
    for (const std::string &W : DS) {
      if (!First)
        Detail += ", ";
      Detail += W;
      First = false;
    }
    Detail += ")";
    (void)Queue.quarantine(TaskId, Detail);
    return;
  }
  if (ExpireInFlight.insert({TaskId, T->Epoch}).second &&
      Queue.expire(TaskId, T->Epoch).ok()) {
    std::lock_guard<std::mutex> L(M);
    ++Stats.LeaseExpiries;
  }
}

void Coordinator::superviseSlots(double Now) {
  for (size_t I = 0; I < Slots.size(); ++I) {
    Slot &S = Slots[I];
    if (S.Spawned && !S.Proc.running()) {
      // Any exit outside shutdown is a death: a healthy worker only leaves
      // when told to.
      S.Spawned = false;
      DeadWorkerIds.insert(S.WorkerId);
      {
        std::lock_guard<std::mutex> L(M);
        ++Stats.WorkerDeaths;
      }
      for (const auto &[Id, T] : State.Tasks)
        if (!T.Done && T.LeaseWorker == S.WorkerId)
          attributeDeath(Id, S.WorkerId);
      ++S.ConsecutiveDeaths;
      if (S.ConsecutiveDeaths > Opts.MaxRespawnsPerSlot) {
        S.Retired = true;
      } else {
        double Backoff = Opts.RespawnBackoffSeconds *
                         static_cast<double>(1u << std::min(
                             S.ConsecutiveDeaths - 1, 16));
        S.NextSpawnAt =
            Now + std::min(Backoff, Opts.RespawnBackoffCapSeconds);
      }
    }
    if (!S.Spawned && !S.Retired && Now >= S.NextSpawnAt && Opts.WorkerArgv &&
        !ShuttingDown.load() && !stopRequested()) {
      S.WorkerId = "w" + std::to_string(I) + "." + std::to_string(S.Attempts);
      support::ChildProcessOptions CPOpts;
      CPOpts.Argv = Opts.WorkerArgv(static_cast<int>(I), S.Attempts);
      CPOpts.Argv.push_back(WorkerIdFlag);
      CPOpts.Argv.push_back(S.WorkerId);
      CPOpts.OutputPath =
          Opts.QueueDir + "/worker-" + std::to_string(I) + ".log";
      auto CP = support::ChildProcess::spawn(CPOpts);
      ++S.Attempts;
      if (!CP.ok()) {
        // Spawn failure counts as an instant death (backoff applies).
        ++S.ConsecutiveDeaths;
        if (S.ConsecutiveDeaths > Opts.MaxRespawnsPerSlot)
          S.Retired = true;
        S.NextSpawnAt = Now + Opts.RespawnBackoffSeconds;
        continue;
      }
      S.Proc = std::move(*CP);
      S.Spawned = true;
      std::lock_guard<std::mutex> L(M);
      ++Stats.WorkersSpawned;
      if (S.Attempts > 1)
        ++Stats.WorkerRespawns;
    }
  }
}

void Coordinator::maybeDegrade(double Now) {
  if (DegradedFlag.load())
    return;
  {
    std::lock_guard<std::mutex> L(M);
    bool AnyOpen = false;
    for (const auto &[Id, PT] : Pending)
      if (!PT.Done) {
        AnyOpen = true;
        break;
      }
    if (!AnyOpen)
      return;
  }
  // Managed slots that are alive — or merely backing off — can still serve.
  for (const Slot &S : Slots)
    if (!S.Retired)
      return;
  // No managed capacity. External workers get a grace window measured from
  // the last queue activity before the search falls back in-process.
  double Quiet = Now - std::max(LastQueueActivity, StartTime);
  if (Quiet < Opts.DegradeGraceSeconds)
    return;
  DegradedFlag.store(true);
  std::lock_guard<std::mutex> L(M);
  Stats.Degraded = true;
  Cv.notify_all();
}

} // namespace service
} // namespace locus
