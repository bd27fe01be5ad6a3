//===- Worker.cpp - Tuning-service worker loop ----------------------------===//

#include "src/service/Worker.h"

#include "src/search/PointCodec.h"
#include "src/support/Posix.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sys/stat.h>
#include <thread>

namespace locus {
namespace service {

namespace {

bool stopRequested(const WorkerOptions &Opts) {
  return Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed);
}

void sleepSeconds(double S) {
  std::this_thread::sleep_for(std::chrono::duration<double>(S));
}

/// Heartbeats Task/Epoch every HeartbeatSeconds until told to stop. The
/// thread parks on a condition variable, so the destructor's notify ends it
/// at once when the evaluation finishes.
class HeartbeatPump {
public:
  HeartbeatPump(TaskQueue &Q, uint64_t Id, uint64_t Epoch,
                const WorkerOptions &Opts, uint64_t &Beats)
      : T([&Q, Id, Epoch, &Opts, &Beats, this] {
          uint64_t Sent = 0;
          std::unique_lock<std::mutex> L(M);
          auto Period = std::chrono::duration<double>(Opts.HeartbeatSeconds);
          while (!Cv.wait_for(L, Period, [this] { return Stop; })) {
            if (Opts.MaxHeartbeatsPerTask >= 0 &&
                Sent >= static_cast<uint64_t>(Opts.MaxHeartbeatsPerTask))
              continue; // simulated stall: lease goes silent
            L.unlock();
            if (Q.heartbeat(Id, Epoch, Opts.WorkerId).ok()) {
              ++Sent;
              ++Beats;
            }
            L.lock();
          }
        }) {}
  ~HeartbeatPump() {
    {
      std::lock_guard<std::mutex> L(M);
      Stop = true;
    }
    Cv.notify_one();
    T.join();
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  bool Stop = false;
  std::thread T; ///< last: starts once M, Cv and Stop exist
};

} // namespace

Expected<WorkerStats> runWorker(const search::Space &Space,
                                search::Objective &Obj,
                                const WorkerOptions &Opts) {
  using Ret = Expected<WorkerStats>;
  if (Opts.QueueDir.empty())
    return Ret::error("worker requires --queue-dir");
  // An empty lease holder reads as "unclaimed" in the fold.
  if (Opts.WorkerId.empty())
    return Ret::error("worker requires a non-empty worker id");

  // The coordinator creates the log; wait for it rather than racing to
  // write a header of our own. There is no doorbell to wait on before the
  // queue exists, so the wait backs off from 1 ms to the poll period: a
  // worker started alongside its coordinator sees the log as it lands, one
  // started long before polls no faster than PollSeconds.
  std::string LogPath = TaskQueue::queueFilePath(Opts.QueueDir);
  for (double Wait = std::min(0.001, Opts.PollSeconds);;
       Wait = std::min(2 * Wait, Opts.PollSeconds)) {
    struct stat St;
    if (::stat(LogPath.c_str(), &St) == 0)
      break;
    if (stopRequested(Opts))
      return Ret::error("worker stopped before queue " + LogPath + " existed");
    sleepSeconds(Wait);
  }

  TaskQueueOptions QOpts;
  QOpts.Dir = Opts.QueueDir;
  QOpts.RequireHeaderMatch = false;
  auto Q = TaskQueue::open(QOpts);
  if (!Q.ok())
    return Ret::error(Q.message());
  TaskQueue Queue = std::move(*Q);
  // A worker knows the space it built but not the coordinator's searcher
  // configuration, so only the space must match.
  if (Opts.SpaceFingerprint != 0) {
    search::RunHeader Want = Queue.header();
    Want.SpaceFingerprint = Opts.SpaceFingerprint;
    if (Status S = search::checkRunHeader(Queue.header(), Want, "queue",
                                          LogPath);
        !S.ok())
      return Ret::error(S.message());
  }

  WorkerStats Stats;
  QueueState State;
  while (true) {
    if (stopRequested(Opts))
      break;
    if (auto Folded = Queue.poll(State); !Folded.ok())
      return Ret::error(Folded.message());
    if (State.ShutdownSeen)
      break;
    const TaskState *T = State.firstClaimable();
    if (!T) {
      Queue.waitForAppend(State, Opts.PollSeconds);
      continue;
    }

    uint64_t Id = T->Id;
    uint64_t Epoch = T->Epoch;
    std::string PointText = T->PointText;
    if (Status S = Queue.claim(Id, Epoch, Opts.WorkerId); !S.ok())
      return Ret::error(S.message());
    if (auto Folded = Queue.poll(State); !Folded.ok())
      return Ret::error(Folded.message());
    T = State.find(Id);
    if (!T || T->Done || T->Epoch != Epoch ||
        T->LeaseWorker != Opts.WorkerId) {
      ++Stats.ClaimsLost; // someone else's lease landed first
      continue;
    }

    if (Opts.OnClaim)
      Opts.OnClaim(Id);

    search::EvalOutcome Out;
    {
      HeartbeatPump Pump(Queue, Id, Epoch, Opts, Stats.Heartbeats);
      auto P = search::deserializePoint(PointText, Space);
      if (!P.ok())
        Out = search::EvalOutcome::fail(search::FailureKind::InvalidPoint,
                                        "worker could not decode point: " +
                                            P.message());
      else
        Out = Obj.assess(*P);
    }
    if (Status S = Queue.postResult(Id, Epoch, Opts.WorkerId, Out); !S.ok())
      return Ret::error(S.message());
    ++Stats.TasksEvaluated;
    if (Opts.MaxTasks != 0 && Stats.TasksEvaluated >= Opts.MaxTasks)
      break;
  }
  return Stats;
}

} // namespace service
} // namespace locus
