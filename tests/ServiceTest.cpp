//===- ServiceTest.cpp - Tuning-service queue/coordinator/worker tests --------===//
//
// Unit and integration coverage for src/service: the queue record codec,
// the first-writer-wins fold (leases, epochs, stale results, quarantine),
// TaskQueue durability across reopen, the coordinator's recovered-result
// store, lease expiry + reassignment with a revived zombie's stale result
// discarded, the one-coordinator-per-queue-dir flock and graceful
// degradation to in-process evaluation. That `--serve` replays the
// single-process trajectory is a row of the Anchors suite.
//
//===----------------------------------------------------------------------===//

#include "src/search/PointCodec.h"
#include "src/service/Coordinator.h"
#include "src/service/TaskQueue.h"
#include "src/service/Worker.h"
#include "src/support/RecordLog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace locus {
namespace {

using namespace service;

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

TEST(QueueCodec, RoundTripsEveryKind) {
  QueueRecord Task;
  Task.K = QueueRecord::Kind::Task;
  Task.Id = 7;
  Task.Digest = 0xdeadbeefcafef00dull;
  Task.Body = "a = i:8\nb = i:3\n";
  auto T2 = parseQueueRecord(encodeQueueRecord(Task));
  ASSERT_TRUE(T2.ok()) << T2.message();
  EXPECT_EQ(T2->K, QueueRecord::Kind::Task);
  EXPECT_EQ(T2->Id, 7u);
  EXPECT_EQ(T2->Digest, 0xdeadbeefcafef00dull);
  EXPECT_EQ(T2->Body, Task.Body);

  QueueRecord Lease;
  Lease.K = QueueRecord::Kind::Lease;
  Lease.Id = 7;
  Lease.Epoch = 2;
  Lease.Worker = "w0.3";
  auto L2 = parseQueueRecord(encodeQueueRecord(Lease));
  ASSERT_TRUE(L2.ok()) << L2.message();
  EXPECT_EQ(L2->K, QueueRecord::Kind::Lease);
  EXPECT_EQ(L2->Epoch, 2u);
  EXPECT_EQ(L2->Worker, "w0.3");

  QueueRecord Hb = Lease;
  Hb.K = QueueRecord::Kind::Heartbeat;
  auto H2 = parseQueueRecord(encodeQueueRecord(Hb));
  ASSERT_TRUE(H2.ok()) << H2.message();
  EXPECT_EQ(H2->K, QueueRecord::Kind::Heartbeat);

  QueueRecord Exp;
  Exp.K = QueueRecord::Kind::Expire;
  Exp.Id = 7;
  Exp.Epoch = 2;
  auto E2 = parseQueueRecord(encodeQueueRecord(Exp));
  ASSERT_TRUE(E2.ok()) << E2.message();
  EXPECT_EQ(E2->K, QueueRecord::Kind::Expire);
  EXPECT_EQ(E2->Epoch, 2u);

  // A success result must survive with full double precision; a failure
  // result must carry its taxonomy kind and detail body.
  QueueRecord Res;
  Res.K = QueueRecord::Kind::Result;
  Res.Id = 7;
  Res.Epoch = 2;
  Res.Worker = "w0.3";
  Res.Out = search::EvalOutcome::success(12345.6789012345678);
  auto R2 = parseQueueRecord(encodeQueueRecord(Res));
  ASSERT_TRUE(R2.ok()) << R2.message();
  EXPECT_EQ(R2->Out.Failure, search::FailureKind::None);
  EXPECT_EQ(R2->Out.Metric, 12345.6789012345678);

  Res.Out = search::EvalOutcome::fail(search::FailureKind::RuntimeTrap,
                                      "trap at pc 42\nbacktrace line 2");
  auto R3 = parseQueueRecord(encodeQueueRecord(Res));
  ASSERT_TRUE(R3.ok()) << R3.message();
  EXPECT_EQ(R3->Out.Failure, search::FailureKind::RuntimeTrap);
  EXPECT_EQ(R3->Out.Detail, "trap at pc 42\nbacktrace line 2");

  QueueRecord Quar;
  Quar.K = QueueRecord::Kind::Quarantine;
  Quar.Id = 9;
  Quar.Body = "3 distinct workers died";
  auto Q2 = parseQueueRecord(encodeQueueRecord(Quar));
  ASSERT_TRUE(Q2.ok()) << Q2.message();
  EXPECT_EQ(Q2->K, QueueRecord::Kind::Quarantine);
  EXPECT_EQ(Q2->Id, 9u);
  EXPECT_EQ(Q2->Body, "3 distinct workers died");

  QueueRecord Shut;
  Shut.K = QueueRecord::Kind::Shutdown;
  auto S2 = parseQueueRecord(encodeQueueRecord(Shut));
  ASSERT_TRUE(S2.ok()) << S2.message();
  EXPECT_EQ(S2->K, QueueRecord::Kind::Shutdown);
}

TEST(QueueCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(parseQueueRecord("").ok());
  EXPECT_FALSE(parseQueueRecord("frobnicate\t1\t2\t3").ok());
  EXPECT_FALSE(parseQueueRecord("lease").ok());            // missing fields
  EXPECT_FALSE(parseQueueRecord("lease\tx\t0\tw").ok());    // non-numeric id
  EXPECT_FALSE(parseQueueRecord("result\t1\t0\tw\tnope\t1\t").ok()); // bad kind
}

TEST(QueueCodec, HeaderRoundTrip) {
  auto parse = [](const std::string &Payload) {
    return search::readRunHeader(Payload, QueueTag, "queue", "q");
  };
  auto Info = parse(search::encodeRunHeader(
      QueueTag, {0x0123456789abcdefull, 0xfedcba9876543210ull}));
  ASSERT_TRUE(Info.ok()) << Info.message();
  EXPECT_EQ(Info->SpaceFingerprint, 0x0123456789abcdefull);
  EXPECT_EQ(Info->ConfigDigest, 0xfedcba9876543210ull);
  EXPECT_FALSE(parse("locus-journal v1\nwhatever").ok());
  EXPECT_FALSE(parse("").ok());
}

//===----------------------------------------------------------------------===//
// The fold (reducer) semantics
//===----------------------------------------------------------------------===//

QueueRecord taskRec(uint64_t Id, const std::string &Body) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Task;
  R.Id = Id;
  R.Body = Body;
  return R;
}

QueueRecord leaseRec(uint64_t Id, uint64_t Epoch, const std::string &W) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Lease;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = W;
  return R;
}

QueueRecord expireRec(uint64_t Id, uint64_t Epoch) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Expire;
  R.Id = Id;
  R.Epoch = Epoch;
  return R;
}

QueueRecord resultRec(uint64_t Id, uint64_t Epoch, const std::string &W,
                      double Metric) {
  QueueRecord R;
  R.K = QueueRecord::Kind::Result;
  R.Id = Id;
  R.Epoch = Epoch;
  R.Worker = W;
  R.Out = search::EvalOutcome::success(Metric);
  return R;
}

TEST(QueueFold, FirstLeaseOfAnEpochWins) {
  QueueState S;
  S.apply(taskRec(1, "p"));
  ASSERT_NE(S.find(1), nullptr);
  EXPECT_TRUE(S.find(1)->claimable());

  S.apply(leaseRec(1, 0, "alice"));
  S.apply(leaseRec(1, 0, "bob")); // optimistic claim that lost the race
  EXPECT_EQ(S.find(1)->LeaseWorker, "alice");
  EXPECT_FALSE(S.find(1)->claimable());

  // The losing claimant's result is discarded, not committed.
  S.apply(resultRec(1, 0, "bob", 9.0));
  EXPECT_FALSE(S.find(1)->Done);
  EXPECT_EQ(S.find(1)->StaleResults, 1u);
  EXPECT_EQ(S.StaleResultsDiscarded, 1u);

  S.apply(resultRec(1, 0, "alice", 4.0));
  ASSERT_TRUE(S.find(1)->Done);
  EXPECT_EQ(S.find(1)->Out.Metric, 4.0);
  EXPECT_EQ(S.find(1)->DoneWorker, "alice");
}

TEST(QueueFold, ExpiryBumpsEpochAndZombieResultsAreDiscarded) {
  QueueState S;
  S.apply(taskRec(1, "p"));
  S.apply(leaseRec(1, 0, "zombie"));
  EXPECT_EQ(S.find(1)->Epoch, 0u);

  // The coordinator judged the lease dead: epoch bumps, task reopens.
  S.apply(expireRec(1, 0));
  EXPECT_EQ(S.find(1)->Epoch, 1u);
  EXPECT_TRUE(S.find(1)->claimable());

  // A stale expire (already-bumped epoch) must be a no-op.
  S.apply(expireRec(1, 0));
  EXPECT_EQ(S.find(1)->Epoch, 1u);

  // The zombie's lease for the old epoch no longer claims anything.
  S.apply(leaseRec(1, 0, "zombie"));
  EXPECT_TRUE(S.find(1)->claimable());

  S.apply(leaseRec(1, 1, "healthy"));
  S.apply(resultRec(1, 1, "healthy", 7.0));
  ASSERT_TRUE(S.find(1)->Done);
  EXPECT_EQ(S.find(1)->Out.Metric, 7.0);

  // The zombie revives and posts its epoch-0 result: first-writer-wins
  // discards it — a task is never double-committed.
  S.apply(resultRec(1, 0, "zombie", 3.0));
  EXPECT_EQ(S.find(1)->Out.Metric, 7.0);
  EXPECT_EQ(S.find(1)->DoneWorker, "healthy");
  EXPECT_EQ(S.find(1)->StaleResults, 1u);
  EXPECT_EQ(S.StaleResultsDiscarded, 1u);
}

TEST(QueueFold, QuarantineCompletesTheTaskAsAClassifiedFailure) {
  QueueState S;
  S.apply(taskRec(3, "p"));
  S.apply(leaseRec(3, 0, "w"));
  QueueRecord Q;
  Q.K = QueueRecord::Kind::Quarantine;
  Q.Id = 3;
  Q.Body = "3 distinct workers died evaluating it";
  S.apply(Q);
  const TaskState *T = S.find(3);
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->Done);
  EXPECT_TRUE(T->Quarantined);
  EXPECT_EQ(T->Out.Failure, search::FailureKind::RuntimeTrap);
  EXPECT_NE(T->Out.Detail.find("3 distinct workers"), std::string::npos);
  // Late results for a quarantined task are stale by definition.
  S.apply(resultRec(3, 0, "w", 1.0));
  EXPECT_TRUE(T->Quarantined);
  EXPECT_EQ(S.StaleResultsDiscarded, 1u);
}

TEST(QueueFold, FirstClaimableIsLowestOpenId) {
  QueueState S;
  S.apply(taskRec(5, "a"));
  S.apply(taskRec(2, "b"));
  S.apply(taskRec(9, "c"));
  ASSERT_NE(S.firstClaimable(), nullptr);
  EXPECT_EQ(S.firstClaimable()->Id, 2u);
  S.apply(leaseRec(2, 0, "w"));
  EXPECT_EQ(S.firstClaimable()->Id, 5u);
}

//===----------------------------------------------------------------------===//
// TaskQueue durability
//===----------------------------------------------------------------------===//

TEST(TaskQueueDurability, StateSurvivesReopenAndReFold) {
  support::TempDir Dir("locus-queue-");
  ASSERT_TRUE(Dir.valid());
  TaskQueueOptions Opts;
  Opts.Dir = Dir.path();
  Opts.Header = search::RunHeader{11, 22};

  auto Q = TaskQueue::open(Opts);
  ASSERT_TRUE(Q.ok()) << Q.message();
  ASSERT_TRUE(Q->announceTask(1, "a = i:8\n", 0x1234).ok());
  ASSERT_TRUE(Q->claim(1, 0, "w1").ok());
  ASSERT_TRUE(Q->heartbeat(1, 0, "w1").ok());
  ASSERT_TRUE(
      Q->postResult(1, 0, "w1", search::EvalOutcome::success(99.5)).ok());
  ASSERT_TRUE(Q->announceTask(2, "a = i:16\n", 0x5678).ok());

  // A second handle (another process, as far as the file is concerned)
  // folds the identical state from the bytes alone.
  auto Q2 = TaskQueue::open(Opts);
  ASSERT_TRUE(Q2.ok()) << Q2.message();
  QueueState S;
  auto N = Q2->poll(S);
  ASSERT_TRUE(N.ok()) << N.message();
  EXPECT_EQ(*N, 5u);
  ASSERT_NE(S.find(1), nullptr);
  EXPECT_TRUE(S.find(1)->Done);
  EXPECT_EQ(S.find(1)->Out.Metric, 99.5);
  EXPECT_EQ(S.find(1)->PointText, "a = i:8\n");
  EXPECT_EQ(S.find(1)->Digest, 0x1234u);
  ASSERT_NE(S.find(2), nullptr);
  EXPECT_TRUE(S.find(2)->claimable());

  // poll() is incremental: nothing new means zero records re-applied.
  auto Again = Q2->poll(S);
  ASSERT_TRUE(Again.ok());
  EXPECT_EQ(*Again, 0u);
}

TEST(TaskQueueDurability, RefusesAQueueWrittenUnderADifferentHeader) {
  support::TempDir Dir("locus-queue-");
  ASSERT_TRUE(Dir.valid());
  TaskQueueOptions Opts;
  Opts.Dir = Dir.path();
  Opts.Header = search::RunHeader{11, 22};
  ASSERT_TRUE(TaskQueue::open(Opts).ok());

  TaskQueueOptions Foreign = Opts;
  Foreign.Header = search::RunHeader{33, 44};
  auto Refused = TaskQueue::open(Foreign);
  EXPECT_FALSE(Refused.ok());

  // Workers open without the match requirement and diff the parsed header
  // themselves; the file's actual header must be surfaced to them.
  Foreign.RequireHeaderMatch = false;
  auto Worker = TaskQueue::open(Foreign);
  ASSERT_TRUE(Worker.ok()) << Worker.message();
  EXPECT_EQ(Worker->header().SpaceFingerprint, 11u);
}

TEST(TaskQueueDurability, CompactDropShutdownRevivesACompletedQueue) {
  support::TempDir Dir("locus-queue-");
  ASSERT_TRUE(Dir.valid());
  TaskQueueOptions Opts;
  Opts.Dir = Dir.path();
  Opts.Header = search::RunHeader{1, 2};
  auto Q = TaskQueue::open(Opts);
  ASSERT_TRUE(Q.ok()) << Q.message();
  ASSERT_TRUE(Q->announceTask(1, "p", 7).ok());
  ASSERT_TRUE(Q->claim(1, 0, "w").ok());
  ASSERT_TRUE(Q->postResult(1, 0, "w", search::EvalOutcome::success(3)).ok());
  ASSERT_TRUE(Q->announceShutdown().ok());

  QueueState S;
  ASSERT_TRUE(Q->poll(S).ok());
  EXPECT_TRUE(S.ShutdownSeen);

  // Serving the dir again: the shutdown record is compacted away, every
  // prior task and result survives as the warm recovered store.
  ASSERT_TRUE(Q->compactDropShutdown().ok());
  QueueState S2;
  ASSERT_TRUE(Q->poll(S2).ok());
  EXPECT_FALSE(S2.ShutdownSeen);
  ASSERT_NE(S2.find(1), nullptr);
  EXPECT_TRUE(S2.find(1)->Done);
  EXPECT_EQ(S2.find(1)->Out.Metric, 3.0);
}

//===----------------------------------------------------------------------===//
// Coordinator + worker integration (in-process worker threads)
//===----------------------------------------------------------------------===//

search::Space twoParamSpace() {
  search::Space S;
  search::ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = search::ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64;
  S.Params.push_back(A);
  search::ParamDef B;
  B.Id = "b";
  B.Label = "b";
  B.Kind = search::ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);
  return S;
}

search::Point makePoint(int64_t A, int64_t B) {
  search::Point P;
  P.set("a", A);
  P.set("b", B);
  return P;
}

/// Deterministic toy objective: metric = 100a + b.
search::EvalOutcome toyAssess(const search::Point &P) {
  return search::EvalOutcome::success(
      static_cast<double>(100 * P.getInt("a") + P.getInt("b")));
}

/// A fallback that records how often the coordinator bailed to it.
class CountingFallback : public search::Objective {
public:
  search::EvalOutcome assess(const search::Point &P) override {
    ++Calls;
    return toyAssess(P);
  }
  std::atomic<int> Calls{0};
};

TEST(Coordinator, SecondCoordinatorOnTheSameQueueDirIsRefused) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  CoordinatorOptions Opts;
  Opts.QueueDir = Dir.path();
  Opts.SpaceFingerprint = 1;
  Opts.ConfigDigest = 2;
  auto First = Coordinator::start(Opts);
  ASSERT_TRUE(First.ok()) << First.message();

  auto Second = Coordinator::start(Opts);
  ASSERT_FALSE(Second.ok());
  EXPECT_NE(Second.message().find("already served"), std::string::npos)
      << Second.message();
  EXPECT_NE(Second.message().find("coordinator.lock"), std::string::npos)
      << Second.message();

  // Releasing the first coordinator releases the flock with it.
  (*First)->shutdown();
  First->reset();
  CoordinatorOptions Fresh = Opts;
  Fresh.QueueDir = Dir.path() + "/fresh";
  auto Third = Coordinator::start(Fresh);
  EXPECT_TRUE(Third.ok()) << Third.message();
}

TEST(Coordinator, ExternalWorkerServesAssessmentsInProposalOrder) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  search::Space S = twoParamSpace();

  CoordinatorOptions Opts;
  Opts.QueueDir = Dir.path();
  Opts.SpaceFingerprint = S.fingerprint();
  Opts.ConfigDigest = 42;
  Opts.PollSeconds = 0.005;
  Opts.LeaseTimeoutSeconds = 20;   // nothing should expire here
  Opts.DegradeGraceSeconds = 20;   // nor degrade
  auto C = Coordinator::start(Opts);
  ASSERT_TRUE(C.ok()) << C.message();

  search::LambdaObjective Obj(
      search::LambdaObjective::OutcomeFn(toyAssess), /*ThreadSafe=*/true);
  WorkerOptions WOpts;
  WOpts.QueueDir = Dir.path();
  WOpts.WorkerId = "thread-worker";
  WOpts.SpaceFingerprint = S.fingerprint();
  WOpts.HeartbeatSeconds = 0.05;
  WOpts.PollSeconds = 0.005;
  Expected<WorkerStats> WR = Expected<WorkerStats>::error("never ran");
  std::thread Worker([&] { WR = runWorker(S, Obj, WOpts); });

  CountingFallback Fallback;
  std::vector<search::Point> Points = {makePoint(8, 3), makePoint(16, 0),
                                       makePoint(4, 15)};
  for (const search::Point &P : Points) {
    search::EvalOutcome Out = (*C)->assess(P, Fallback);
    EXPECT_TRUE(Out.ok());
    EXPECT_EQ(Out.Metric, toyAssess(P).Metric);
  }
  EXPECT_EQ(Fallback.Calls.load(), 0);

  (*C)->shutdown(); // the shutdown record retires the worker loop
  Worker.join();
  ASSERT_TRUE(WR.ok()) << WR.message();
  EXPECT_EQ(WR->TasksEvaluated, 3u);

  ServiceStats Stats = (*C)->stats();
  EXPECT_EQ(Stats.TasksSubmitted, 3u);
  EXPECT_EQ(Stats.WorkerResults, 3u);
  EXPECT_EQ(Stats.LocalFallbackEvals, 0u);
  EXPECT_FALSE(Stats.Degraded);
}

TEST(Coordinator, RecoveredResultsAreServedWithoutReEvaluation) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  search::Space S = twoParamSpace();
  search::Point P = makePoint(32, 5);
  std::string Text = search::serializePoint(P);

  // A previous coordinator's life: the task was announced, claimed, and the
  // result committed — then the coordinator was SIGKILLed before journaling.
  {
    TaskQueueOptions QOpts;
    QOpts.Dir = Dir.path();
    QOpts.Header = search::RunHeader{S.fingerprint(), 42};
    auto Q = TaskQueue::open(QOpts);
    ASSERT_TRUE(Q.ok()) << Q.message();
    ASSERT_TRUE(Q->announceTask(1, Text, 0).ok());
    ASSERT_TRUE(Q->claim(1, 0, "w-before-crash").ok());
    ASSERT_TRUE(
        Q->postResult(1, 0, "w-before-crash", search::EvalOutcome::success(555))
            .ok());
  }

  CoordinatorOptions Opts;
  Opts.QueueDir = Dir.path();
  Opts.SpaceFingerprint = S.fingerprint();
  Opts.ConfigDigest = 42;
  auto C = Coordinator::start(Opts);
  ASSERT_TRUE(C.ok()) << C.message();

  // The finished-but-unjournaled evaluation is never redone: no worker is
  // attached, yet the assessment returns instantly from the recovered store.
  CountingFallback Fallback;
  search::EvalOutcome Out = (*C)->assess(P, Fallback);
  EXPECT_EQ(Out.Metric, 555.0);
  EXPECT_EQ(Fallback.Calls.load(), 0);
  ServiceStats Stats = (*C)->stats();
  EXPECT_EQ(Stats.RecoveredResults, 1u);
  (*C)->shutdown();
}

TEST(Coordinator, StalledLeaseIsReassignedAndTheZombieResultDiscarded) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  search::Space S = twoParamSpace();
  search::Point P = makePoint(8, 1);

  CoordinatorOptions Opts;
  Opts.QueueDir = Dir.path();
  Opts.SpaceFingerprint = S.fingerprint();
  Opts.ConfigDigest = 42;
  Opts.PollSeconds = 0.005;
  Opts.LeaseTimeoutSeconds = 0.25; // judged on heartbeat *arrival* silence
  Opts.DegradeGraceSeconds = 60;   // degradation must not rescue this test
  auto C = Coordinator::start(Opts);
  ASSERT_TRUE(C.ok()) << C.message();

  CountingFallback Fallback;
  search::EvalOutcome Out;
  std::thread Assessor([&] { Out = (*C)->assess(P, Fallback); });

  // Drive the worker protocol by hand for exact control of the timeline.
  TaskQueueOptions QOpts;
  QOpts.Dir = Dir.path();
  QOpts.RequireHeaderMatch = false;
  auto Q = TaskQueue::open(QOpts);
  ASSERT_TRUE(Q.ok()) << Q.message();

  auto waitFor = [&](const std::function<bool(const QueueState &)> &Pred) {
    QueueState View;
    for (int I = 0; I < 2000; ++I) {
      View = QueueState{};
      EXPECT_TRUE(Q->poll(View).ok());
      if (Pred(View))
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  // The zombie claims, heartbeats once, then goes silent.
  ASSERT_TRUE(waitFor(
      [](const QueueState &V) { return V.firstClaimable() != nullptr; }));
  ASSERT_TRUE(Q->claim(1, 0, "zombie").ok());
  ASSERT_TRUE(Q->heartbeat(1, 0, "zombie").ok());

  // Heartbeat-then-stall: the coordinator expires the lease and reopens the
  // task at epoch 1.
  ASSERT_TRUE(waitFor([](const QueueState &V) {
    const TaskState *T = V.find(1);
    return T && !T->Done && T->Epoch == 1 && T->claimable();
  }));

  // A healthy worker claims the reassigned epoch and commits.
  ASSERT_TRUE(Q->claim(1, 1, "healthy").ok());
  ASSERT_TRUE(
      Q->postResult(1, 1, "healthy", search::EvalOutcome::success(777)).ok());
  Assessor.join();
  EXPECT_EQ(Out.Metric, 777.0);
  EXPECT_EQ(Fallback.Calls.load(), 0);

  // The zombie revives and posts its stale epoch-0 result: discarded and
  // counted, never double-committed.
  ASSERT_TRUE(
      Q->postResult(1, 0, "zombie", search::EvalOutcome::success(111)).ok());
  ASSERT_TRUE(waitFor([](const QueueState &V) {
    const TaskState *T = V.find(1);
    return T && T->Done && T->Out.Metric == 777.0 && T->StaleResults >= 1;
  }));

  // The coordinator's stats mirror the fold: an expiry happened, the stale
  // result was discarded, exactly one result was accepted.
  bool StatsSettled = false;
  for (int I = 0; I < 1000 && !StatsSettled; ++I) {
    ServiceStats Stats = (*C)->stats();
    StatsSettled = Stats.LeaseExpiries >= 1 && Stats.StaleResultsDiscarded >= 1;
    if (!StatsSettled)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(StatsSettled);
  EXPECT_EQ((*C)->stats().WorkerResults, 1u);
  (*C)->shutdown();
}

TEST(Coordinator, DegradesToInProcessEvaluationWhenNoWorkerExists) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  CoordinatorOptions Opts;
  Opts.QueueDir = Dir.path();
  Opts.SpaceFingerprint = 1;
  Opts.ConfigDigest = 2;
  Opts.PollSeconds = 0.005;
  Opts.LeaseTimeoutSeconds = 5;
  Opts.DegradeGraceSeconds = 0.1; // no workers will ever show up
  auto C = Coordinator::start(Opts);
  ASSERT_TRUE(C.ok()) << C.message();

  CountingFallback Fallback;
  search::Point P = makePoint(8, 2);
  search::EvalOutcome Out = (*C)->assess(P, Fallback);
  EXPECT_TRUE(Out.ok());
  EXPECT_EQ(Out.Metric, toyAssess(P).Metric);
  EXPECT_EQ(Fallback.Calls.load(), 1);

  ServiceStats Stats = (*C)->stats();
  EXPECT_TRUE(Stats.Degraded);
  EXPECT_EQ(Stats.LocalFallbackEvals, 1u);

  // Once degraded, later assessments fall back immediately.
  (void)(*C)->assess(makePoint(4, 4), Fallback);
  EXPECT_EQ(Fallback.Calls.load(), 2);
  EXPECT_EQ((*C)->stats().LocalFallbackEvals, 2u);
  (*C)->shutdown();
}

TEST(Worker, RefusesAQueuePinnedToAForeignSpace) {
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  TaskQueueOptions QOpts;
  QOpts.Dir = Dir.path();
  QOpts.Header = search::RunHeader{0xaaaa, 0xbbbb};
  ASSERT_TRUE(TaskQueue::open(QOpts).ok());

  search::Space S = twoParamSpace();
  search::LambdaObjective Obj{search::LambdaObjective::OutcomeFn(toyAssess)};
  WorkerOptions WOpts;
  WOpts.QueueDir = Dir.path();
  WOpts.SpaceFingerprint = S.fingerprint(); // != 0xaaaa
  auto R = runWorker(S, Obj, WOpts);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("foreign"), std::string::npos) << R.message();
}

TEST(Worker, IdWithASpaceKeepsItsClaim) {
  // Worker ids are escaped record fields: a worker named "w 1" must find
  // its own lease in the fold and evaluate the task.
  support::TempDir Dir("locus-svc-");
  ASSERT_TRUE(Dir.valid());
  search::Space S = twoParamSpace();
  TaskQueueOptions QOpts;
  QOpts.Dir = Dir.path();
  QOpts.Header = search::RunHeader{S.fingerprint(), 42};
  auto Q = TaskQueue::open(QOpts);
  ASSERT_TRUE(Q.ok()) << Q.message();
  ASSERT_TRUE(
      Q->announceTask(1, search::serializePoint(makePoint(8, 1)), 0).ok());

  // A lost claim parks the worker until the lease expires; the stop flag
  // bounds the test instead of letting it hang.
  std::atomic<bool> Stop{false};
  std::thread Watchdog([&Stop] {
    for (int I = 0; I < 500 && !Stop.load(); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Stop.store(true);
  });
  search::LambdaObjective Obj{search::LambdaObjective::OutcomeFn(toyAssess)};
  WorkerOptions WOpts;
  WOpts.QueueDir = Dir.path();
  WOpts.WorkerId = "w 1";
  WOpts.MaxTasks = 1;
  WOpts.StopFlag = &Stop;
  auto R = runWorker(S, Obj, WOpts);
  Stop.store(true);
  Watchdog.join();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->TasksEvaluated, 1u);
  EXPECT_EQ(R->ClaimsLost, 0u);

  QueueState State;
  ASSERT_TRUE(Q->poll(State).ok());
  ASSERT_NE(State.find(1), nullptr);
  EXPECT_TRUE(State.find(1)->Done);
  EXPECT_EQ(State.find(1)->DoneWorker, "w 1");
}

TEST(Worker, EmptyIdIsRefused) {
  // An empty lease holder reads as "unclaimed" in the fold, so a worker
  // without a name could never own a task.
  search::Space S = twoParamSpace();
  search::LambdaObjective Obj{search::LambdaObjective::OutcomeFn(toyAssess)};
  // The queue dir never appears; a stop flag that is already set keeps a
  // worker that accepts the id from waiting for it.
  std::atomic<bool> Stop{true};
  WorkerOptions WOpts;
  WOpts.QueueDir = "unused";
  WOpts.WorkerId = "";
  WOpts.StopFlag = &Stop;
  auto R = runWorker(S, Obj, WOpts);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("worker id"), std::string::npos) << R.message();
}

} // namespace
} // namespace locus
