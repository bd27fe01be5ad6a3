//===- TaskQueue.h - Durable lease-based evaluation task queue ---*- C++ -*-===//
///
/// \file
/// The durable heart of the tuning service: an append-only event log of
/// evaluation tasks, leases, heartbeats and results on support::RecordLog.
/// Coordinator and workers share one `queue.rlog` file; flock-serialized
/// CRC-framed appends give every record a total order, and *the folded log
/// is the state* — there is no other source of truth, which is exactly what
/// makes a SIGKILL at any byte recoverable: reopen, re-fold, continue.
///
/// Every append rings a doorbell (support::Doorbell, <dir>/queue.bell), so
/// an idle reader sleeps until the log grows instead of re-scanning it on a
/// timer; the poll period survives only as the fallback wake-up.
///
/// Records (task, lease, hb, expire, result, quarantine, shutdown) and the
/// "locus-queue v2" run header are written in the RecordCodec grammar; its
/// table lists every record's fields.
///
/// Lease state machine (per task):
///
///   open --lease--> claimed --result--> done
///     ^                |
///     |             expire (coordinator judged the lease dead)
///     +----------------+         ...and a quarantine record finishes a
///                                task no worker survives (done, failed).
///
/// Claims are optimistic, first-writer-wins: a worker appends a lease
/// carrying the task's current epoch, re-folds, and owns the task iff its
/// record is the *first* lease of that epoch. Every expiry bumps the epoch,
/// so a revived worker holding a stale lease can still append its result —
/// the fold discards it (epoch/worker mismatch) and counts it, never
/// double-committing a task. Since evaluation is deterministic, whichever
/// single result is accepted is THE result, which is what keeps the
/// coordinator's trajectory bit-identical to the single-process run.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SERVICE_TASKQUEUE_H
#define LOCUS_SERVICE_TASKQUEUE_H

#include "src/search/RecordCodec.h"
#include "src/search/Search.h"
#include "src/support/Error.h"
#include "src/support/Posix.h"
#include "src/support/RecordLog.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>

namespace locus {
namespace service {

/// One decoded queue record.
struct QueueRecord {
  enum class Kind : uint8_t {
    Task,
    Lease,
    Heartbeat,
    Expire,
    Result,
    Quarantine,
    Shutdown,
  };
  Kind K = Kind::Task;
  uint64_t Id = 0;
  uint64_t Epoch = 0;
  uint64_t Digest = 0;     ///< Task: fnv1a of the serialized point
  std::string Worker{};      ///< Lease/Heartbeat/Result
  std::string Body{};        ///< Task: point text; Quarantine: detail
  search::EvalOutcome Out{}; ///< Result: the outcome, detail included
};

/// Stable name of a record kind ("task", "lease", ...).
const char *queueRecordKindName(QueueRecord::Kind K);

/// Encodes a record as a RecordLog payload.
std::string encodeQueueRecord(const QueueRecord &R);

/// Decodes a payload; rejects malformed records with a reason naming the
/// field (a corrupt frame cannot pass the RecordLog CRC, so a parse failure
/// here means a foreign or newer-version writer).
Expected<QueueRecord> parseQueueRecord(const std::string &Payload);

/// Per-task view after folding the log.
struct TaskState {
  uint64_t Id = 0;
  std::string PointText;
  uint64_t Digest = 0;
  /// Number of expiries so far; leases and results must match it.
  uint64_t Epoch = 0;
  /// Winning (first) lease holder of the current epoch; empty = unclaimed.
  std::string LeaseWorker;
  bool Done = false;
  bool Quarantined = false;
  search::EvalOutcome Out; ///< valid once Done
  std::string DoneWorker;  ///< who produced the accepted result
  /// Results for this task that lost first-writer-wins (stale epoch, wrong
  /// worker, or task already done) and were discarded.
  uint64_t StaleResults = 0;

  bool claimable() const { return !Done && LeaseWorker.empty(); }
};

/// The deterministic fold over the record sequence. Coordinator and workers
/// run the same reducer, so every process that has read the same prefix of
/// the log agrees on ownership and outcomes.
struct QueueState {
  std::map<uint64_t, TaskState> Tasks;
  bool ShutdownSeen = false;
  uint64_t StaleResultsDiscarded = 0;
  /// Records folded so far (poll() resumes from here).
  uint64_t AppliedRecords = 0;
  /// The queue's doorbell as sampled by the last poll() *before* its scan:
  /// any append the scan missed has moved the bell past this value.
  uint32_t BellSeen = 0;

  void apply(const QueueRecord &R);
  const TaskState *find(uint64_t Id) const;
  /// Lowest-id claimable task, or nullptr.
  const TaskState *firstClaimable() const;
};

/// The queue's header tag.
inline constexpr const char *QueueTag = "locus-queue v2";

struct TaskQueueOptions {
  /// Queue directory; the log lives at <Dir>/queue.rlog, its doorbell at
  /// <Dir>/queue.bell.
  std::string Dir;
  /// The run the queue is pinned to. The opener that creates the file
  /// writes it.
  search::RunHeader Header;
  /// Refuse a queue written for another run (coordinator). Workers open
  /// with false and compare the space themselves. A file that is not a
  /// queue of this version is refused either way.
  bool RequireHeaderMatch = true;
};

/// Shared handle on the queue log: append typed records, re-fold on poll.
/// Appends are thread-safe (RecordLog's internal mutex + flock); poll takes
/// a caller-owned QueueState so each thread folds its own view.
class TaskQueue {
public:
  static Expected<TaskQueue> open(const TaskQueueOptions &Opts);

  Status announceTask(uint64_t Id, const std::string &PointText,
                      uint64_t Digest);
  Status claim(uint64_t Id, uint64_t Epoch, const std::string &Worker);
  Status heartbeat(uint64_t Id, uint64_t Epoch, const std::string &Worker);
  Status postResult(uint64_t Id, uint64_t Epoch, const std::string &Worker,
                    const search::EvalOutcome &Out);
  Status expire(uint64_t Id, uint64_t Epoch);
  Status quarantine(uint64_t Id, const std::string &Detail);
  Status announceShutdown();

  /// Rewrites the log without its shutdown record(s): a completed run's
  /// queue dir can be served again, with every prior task/result surviving
  /// as the warm recovered-result store. Callers must reset and re-fold
  /// their QueueState afterwards.
  Status compactDropShutdown();

  /// Re-scans the log and folds every record beyond State.AppliedRecords
  /// into State, invoking OnRecord (when given) for each *after* it was
  /// applied. Returns the number of new records.
  Expected<uint64_t>
  poll(QueueState &State,
       const std::function<void(const QueueRecord &)> &OnRecord = nullptr);

  /// Blocks until some record is appended after State's last poll began,
  /// or Timeout seconds pass (the fallback wake-up; also the whole wait
  /// when the doorbell could not be mapped). May return early; callers
  /// re-poll and wait again.
  void waitForAppend(const QueueState &State, double Timeout) const;
  /// Wakes every waitForAppend without appending (a shutdown that must not
  /// depend on its record reaching the log).
  void ring() const { Bell.ring(); }

  const std::string &path() const { return Path; }
  /// The header actually found in (or written to) the file.
  const search::RunHeader &header() const { return Header; }

  static std::string queueFilePath(const std::string &Dir);

private:
  Status append(const QueueRecord &R);

  std::string Path;
  search::RunHeader Header;
  support::RecordLog Log;
  support::Doorbell Bell;
};

} // namespace service
} // namespace locus

#endif // LOCUS_SERVICE_TASKQUEUE_H
