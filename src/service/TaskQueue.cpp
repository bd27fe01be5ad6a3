//===- TaskQueue.cpp - Durable lease-based evaluation task queue ----------===//

#include "src/service/TaskQueue.h"

#include <algorithm>
#include <iterator>
#include <vector>

namespace locus {
namespace service {

namespace {

constexpr const char *QueueFileName = "queue.rlog";
constexpr const char *BellFileName = "queue.bell";

/// Record kind names, in QueueRecord::Kind order.
constexpr const char *KindNames[] = {"task",   "lease",      "hb",
                                     "expire", "result",     "quarantine",
                                     "shutdown"};

/// The fields after the kind name, per record kind: the one layout that
/// encodeQueueRecord writes and parseQueueRecord reads.
template <typename Codec, typename Record>
void walkFields(Codec &C, Record &R) {
  using K = QueueRecord::Kind;
  if (R.K != K::Shutdown)
    C.id(R.Id, "id");
  switch (R.K) {
  case K::Task:
    C.hex(R.Digest, "digest").text(R.Body, "point");
    break;
  case K::Lease:
  case K::Heartbeat:
    C.id(R.Epoch, "epoch").text(R.Worker, "worker");
    break;
  case K::Expire:
    C.id(R.Epoch, "epoch");
    break;
  case K::Result:
    C.id(R.Epoch, "epoch").text(R.Worker, "worker").outcome(R.Out);
    break;
  case K::Quarantine:
    C.text(R.Body, "detail");
    break;
  case K::Shutdown:
    break;
  }
}

} // namespace

const char *queueRecordKindName(QueueRecord::Kind K) {
  return KindNames[static_cast<size_t>(K)];
}

std::string encodeQueueRecord(const QueueRecord &R) {
  search::RecordWriter W;
  walkFields(W.text(queueRecordKindName(R.K)), R);
  return W.take();
}

Expected<QueueRecord> parseQueueRecord(const std::string &Payload) {
  search::RecordReader In(Payload);
  std::string Kind;
  In.text(Kind, "kind");
  auto Name = std::find(std::begin(KindNames), std::end(KindNames), Kind);
  if (Name == std::end(KindNames))
    return Expected<QueueRecord>::error("unknown queue record kind '" + Kind +
                                        "'");
  QueueRecord R;
  R.K = static_cast<QueueRecord::Kind>(Name - std::begin(KindNames));
  walkFields(In, R);
  if (Status S = In.finish(); !S.ok())
    return Expected<QueueRecord>::error("queue record '" + Kind +
                                        "': " + S.message());
  return R;
}

//===----------------------------------------------------------------------===//
// QueueState
//===----------------------------------------------------------------------===//

void QueueState::apply(const QueueRecord &R) {
  ++AppliedRecords;
  switch (R.K) {
  case QueueRecord::Kind::Task: {
    auto [It, Inserted] = Tasks.try_emplace(R.Id);
    if (Inserted) {
      It->second.Id = R.Id;
      It->second.PointText = R.Body;
      It->second.Digest = R.Digest;
    }
    // A duplicate task id (a coordinator resumed past its own announcement)
    // keeps the first announcement; the point text is identical by
    // construction (id assignment is monotonic per queue).
    return;
  }
  case QueueRecord::Kind::Lease: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    // First lease of the current epoch wins; anything else lost the race
    // or arrived from a past epoch and is void.
    if (!T.Done && R.Epoch == T.Epoch && T.LeaseWorker.empty())
      T.LeaseWorker = R.Worker;
    return;
  }
  case QueueRecord::Kind::Heartbeat:
    // Liveness is judged by the *observer's* arrival clock (no in-file
    // timestamps, hence no cross-host clock skew); the fold itself is
    // heartbeat-blind.
    return;
  case QueueRecord::Kind::Expire: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    if (!T.Done && R.Epoch == T.Epoch) {
      ++T.Epoch;
      T.LeaseWorker.clear();
    }
    return;
  }
  case QueueRecord::Kind::Result: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end()) {
      ++StaleResultsDiscarded;
      return;
    }
    TaskState &T = It->second;
    // First-writer-wins: accepted iff the task is open and the result
    // carries the winning lease of the *current* epoch. A revived worker's
    // post-expiry result fails the epoch match and is discarded + counted.
    if (!T.Done && R.Epoch == T.Epoch && !T.LeaseWorker.empty() &&
        R.Worker == T.LeaseWorker) {
      T.Done = true;
      T.Out = R.Out;
      T.DoneWorker = R.Worker;
    } else {
      ++T.StaleResults;
      ++StaleResultsDiscarded;
    }
    return;
  }
  case QueueRecord::Kind::Quarantine: {
    auto It = Tasks.find(R.Id);
    if (It == Tasks.end())
      return;
    TaskState &T = It->second;
    if (!T.Done) {
      T.Done = true;
      T.Quarantined = true;
      T.Out = search::EvalOutcome::fail(search::FailureKind::RuntimeTrap,
                                        R.Body);
      T.LeaseWorker.clear();
    }
    return;
  }
  case QueueRecord::Kind::Shutdown:
    ShutdownSeen = true;
    return;
  }
}

const TaskState *QueueState::find(uint64_t Id) const {
  auto It = Tasks.find(Id);
  return It == Tasks.end() ? nullptr : &It->second;
}

const TaskState *QueueState::firstClaimable() const {
  for (const auto &[Id, T] : Tasks)
    if (T.claimable())
      return &T;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// TaskQueue
//===----------------------------------------------------------------------===//

std::string TaskQueue::queueFilePath(const std::string &Dir) {
  return Dir + "/" + QueueFileName;
}

Expected<TaskQueue> TaskQueue::open(const TaskQueueOptions &Opts) {
  TaskQueue Q;
  Q.Path = queueFilePath(Opts.Dir);
  support::RecordLogOptions LOpts;
  LOpts.Header = search::encodeRunHeader(QueueTag, Opts.Header);
  // Compared structurally below for located diagnostics, not byte-wise.
  LOpts.RequireHeaderMatch = false;
  LOpts.FsyncEachRecord = Opts.FsyncEachRecord;
  support::RecordLogScan Recovery;
  auto Log = support::RecordLog::open(Q.Path, LOpts, &Recovery);
  if (!Log.ok())
    return Expected<TaskQueue>::error(Log.message());
  auto H = search::readRunHeader(
      Recovery.Header.empty() ? LOpts.Header : Recovery.Header, QueueTag,
      "queue", Q.Path, Opts.RequireHeaderMatch ? &Opts.Header : nullptr);
  if (!H.ok())
    return Expected<TaskQueue>::error(H.message());
  Q.Header = *H;
  Q.Log = std::move(*Log);
  // No doorbell only costs latency: waitForAppend falls back to sleeping.
  if (auto Bell = support::Doorbell::open(Opts.Dir + "/" + BellFileName);
      Bell.ok())
    Q.Bell = std::move(*Bell);
  return Q;
}

Status TaskQueue::append(const QueueRecord &R) {
  Status S = Log.append(encodeQueueRecord(R));
  Bell.ring();
  return S;
}

Status TaskQueue::announceTask(uint64_t Id, const std::string &PointText,
                               uint64_t Digest) {
  return append({.K = QueueRecord::Kind::Task,
                 .Id = Id,
                 .Digest = Digest,
                 .Body = PointText});
}

Status TaskQueue::claim(uint64_t Id, uint64_t Epoch,
                        const std::string &Worker) {
  return append({.K = QueueRecord::Kind::Lease,
                 .Id = Id,
                 .Epoch = Epoch,
                 .Worker = Worker});
}

Status TaskQueue::heartbeat(uint64_t Id, uint64_t Epoch,
                            const std::string &Worker) {
  return append({.K = QueueRecord::Kind::Heartbeat,
                 .Id = Id,
                 .Epoch = Epoch,
                 .Worker = Worker});
}

Status TaskQueue::postResult(uint64_t Id, uint64_t Epoch,
                             const std::string &Worker,
                             const search::EvalOutcome &Out) {
  return append({.K = QueueRecord::Kind::Result,
                 .Id = Id,
                 .Epoch = Epoch,
                 .Worker = Worker,
                 .Out = Out});
}

Status TaskQueue::expire(uint64_t Id, uint64_t Epoch) {
  return append({.K = QueueRecord::Kind::Expire, .Id = Id, .Epoch = Epoch});
}

Status TaskQueue::quarantine(uint64_t Id, const std::string &Detail) {
  return append(
      {.K = QueueRecord::Kind::Quarantine, .Id = Id, .Body = Detail});
}

Status TaskQueue::announceShutdown() {
  return append({.K = QueueRecord::Kind::Shutdown});
}

Status TaskQueue::compactDropShutdown() {
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok())
    return Status::error(Scan.message());
  std::vector<std::string> Kept;
  Kept.reserve(Scan->Records.size());
  for (std::string &Payload : Scan->Records) {
    auto R = parseQueueRecord(Payload);
    if (R.ok() && R->K == QueueRecord::Kind::Shutdown)
      continue;
    Kept.push_back(std::move(Payload));
  }
  return Log.compact(Kept);
}

Expected<uint64_t>
TaskQueue::poll(QueueState &State,
                const std::function<void(const QueueRecord &)> &OnRecord) {
  State.BellSeen = Bell.sample();
  auto Scan = support::RecordLog::scan(Path);
  if (!Scan.ok())
    return Expected<uint64_t>::error(Scan.message());
  // A torn tail here is a writer that crashed mid-append; the complete
  // prefix is still authoritative and the next RecordLog::open amputates
  // the damage, so the fold simply ignores the flags.
  uint64_t Applied = 0;
  for (uint64_t I = State.AppliedRecords; I < Scan->Records.size(); ++I) {
    auto R = parseQueueRecord(Scan->Records[I]);
    if (!R.ok())
      return Expected<uint64_t>::error(
          Path + ": record " + std::to_string(I) + ": " + R.message());
    State.apply(*R);
    if (OnRecord)
      OnRecord(*R);
    ++Applied;
  }
  return Applied;
}

void TaskQueue::waitForAppend(const QueueState &State, double Timeout) const {
  Bell.wait(State.BellSeen, Timeout);
}

} // namespace service
} // namespace locus
