//===- DoorbellTest.cpp - Event-driven wake-ups of the task queue -----------===//
//
// The queue's doorbell (support::Doorbell at <queue dir>/queue.bell) wakes
// idle workers and the coordinator's supervisor on every append. Each
// service test here sets the fallback wake period (PollSeconds) far above
// its deadline, so it can only pass through the wake path: one lost
// wake-up costs a whole period. The fallback test checks the other side: a
// bell that cannot be mapped leaves polling, with the same trajectory.
//
//===----------------------------------------------------------------------===//

#include "src/search/Search.h"
#include "src/service/Coordinator.h"
#include "src/service/Worker.h"
#include "src/support/Posix.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

namespace locus {
namespace {

using namespace service;
using support::monotonicSeconds;

/// A fallback wake period no test here may wait out.
constexpr double LongPoll = 30;

TEST(Doorbell, RingWakesAWaiterAndAMovedBellDoesNotBlock) {
  support::TempDir Dir("locus-bell-");
  ASSERT_TRUE(Dir.valid());
  auto A = support::Doorbell::open(Dir.path() + "/bell");
  auto B = support::Doorbell::open(Dir.path() + "/bell");
  ASSERT_TRUE(A.ok()) << A.message();
  ASSERT_TRUE(B.ok()) << B.message();

  // A waiter whose sample is already stale returns at once.
  uint32_t Seen = A->sample();
  B->ring();
  EXPECT_EQ(A->sample(), Seen + 1) << "two mappings share one counter";
  double T0 = monotonicSeconds();
  A->wait(Seen, LongPoll);
  EXPECT_LT(monotonicSeconds() - T0, 5.0);

  // A parked waiter is woken by a ring through the other mapping.
  Seen = A->sample();
  std::thread Ringer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    B->ring();
  });
  T0 = monotonicSeconds();
  while (A->sample() == Seen && monotonicSeconds() - T0 < LongPoll)
    A->wait(Seen, LongPoll);
  Ringer.join();
  EXPECT_LT(monotonicSeconds() - T0, 10.0);
}

search::Space wideSpace() {
  search::Space S;
  for (const char *Id : {"a", "b"}) {
    search::ParamDef P;
    P.Id = P.Label = Id;
    P.Kind = search::ParamKind::IntRange;
    P.Min = 0;
    P.Max = 255;
    S.Params.push_back(P);
  }
  return S;
}

/// Deterministic and thread-safe: metric = (a - 100)^2 + (b - 30)^2 + 1.
search::EvalOutcome toyAssess(const search::Point &P) {
  double A = static_cast<double>(P.getInt("a") - 100);
  double B = static_cast<double>(P.getInt("b") - 30);
  return search::EvalOutcome::success(A * A + B * B + 1);
}

/// One line per committed evaluation: point, failure kind and metric.
std::vector<std::string> trajectory(const search::SearchResult &R) {
  std::vector<std::string> Lines;
  for (const search::EvalRecord &E : R.History) {
    std::ostringstream L;
    L << E.P.key() << " " << static_cast<int>(E.Failure) << " "
      << std::hexfloat << E.Metric;
    Lines.push_back(L.str());
  }
  Lines.push_back("best " + R.Best.key());
  return Lines;
}

search::SearchOptions searchOptions(int Tasks, int Jobs) {
  search::SearchOptions SOpts;
  SOpts.MaxEvaluations = Tasks;
  SOpts.Seed = 11;
  SOpts.Jobs = Jobs;
  return SOpts;
}

search::SearchResult localSearch(int Tasks) {
  search::LambdaObjective Obj{search::LambdaObjective::OutcomeFn(toyAssess)};
  return search::makeSearcher("random")->search(wideSpace(), Obj,
                                                searchOptions(Tasks, 1));
}

struct ServedRun {
  search::SearchResult Result;
  ServiceStats Stats;
  std::vector<WorkerStats> Workers;
  double Seconds = 0;
};

/// A random search of Tasks evaluations served by in-process workers, with
/// PollSeconds as the fallback wake period on both sides. Nothing expires
/// or degrades within the test, so every result comes from a worker.
ServedRun serveSearch(const std::string &Dir, int Workers, int Tasks,
                      double PollSeconds) {
  search::Space S = wideSpace();
  ServedRun Run;
  double T0 = monotonicSeconds();
  CoordinatorOptions Opts;
  Opts.QueueDir = Dir;
  Opts.SpaceFingerprint = S.fingerprint();
  Opts.ConfigDigest = 7;
  Opts.PollSeconds = PollSeconds;
  Opts.LeaseTimeoutSeconds = 600;
  Opts.DegradeGraceSeconds = 600;
  auto C = Coordinator::start(Opts);
  EXPECT_TRUE(C.ok()) << C.message();
  if (!C.ok())
    return Run;

  // Started after the coordinator, so the queue file already exists.
  search::LambdaObjective WorkerObj(
      search::LambdaObjective::OutcomeFn(toyAssess), /*ThreadSafe=*/true);
  std::vector<Expected<WorkerStats>> Results(
      Workers, Expected<WorkerStats>::error("never ran"));
  std::vector<std::thread> Threads;
  for (int I = 0; I < Workers; ++I)
    Threads.emplace_back([&, I] {
      WorkerOptions WOpts;
      WOpts.QueueDir = Dir;
      WOpts.WorkerId = "t" + std::to_string(I);
      WOpts.SpaceFingerprint = S.fingerprint();
      WOpts.PollSeconds = PollSeconds;
      Results[I] = runWorker(S, WorkerObj, WOpts);
    });

  search::LambdaObjective Fallback(
      search::LambdaObjective::OutcomeFn(toyAssess), /*ThreadSafe=*/true);
  DistributedObjective Dist(**C, Fallback);
  Run.Result = search::makeSearcher("random")->search(
      S, Dist, searchOptions(Tasks, Workers));
  (*C)->shutdown(); // the shutdown record retires the workers
  for (std::thread &T : Threads)
    T.join();
  Run.Seconds = monotonicSeconds() - T0;
  Run.Stats = (*C)->stats();
  for (auto &R : Results) {
    EXPECT_TRUE(R.ok()) << R.message();
    if (R.ok())
      Run.Workers.push_back(*R);
  }
  return Run;
}

void expectServedByWorkers(const ServedRun &Run, int Tasks) {
  EXPECT_EQ(Run.Result.Evaluations, Tasks);
  EXPECT_EQ(Run.Stats.WorkerResults, Run.Stats.TasksSubmitted);
  EXPECT_EQ(Run.Stats.LocalFallbackEvals, 0u);
  EXPECT_EQ(Run.Stats.LeaseExpiries, 0u);
  EXPECT_FALSE(Run.Stats.Degraded);
}

TEST(Doorbell, SearchFinishesWellWithinOneFallbackPeriod) {
  support::TempDir Dir("locus-bell-");
  ASSERT_TRUE(Dir.valid());
  ServedRun Run = serveSearch(Dir.path(), 1, 20, LongPoll);
  expectServedByWorkers(Run, 20);
  EXPECT_EQ(trajectory(Run.Result), trajectory(localSearch(20)));
  EXPECT_LT(Run.Seconds, 10.0) << "a wake-up was lost and the "
                               << LongPoll << " s fallback fired";
}

TEST(Doorbell, NoWakeUpIsLostUnderStress) {
  // Hundreds of sleep/wake cycles on three waiters (two workers and the
  // supervisor) racing the appends that should wake them.
  support::TempDir Dir("locus-bell-");
  ASSERT_TRUE(Dir.valid());
  ServedRun Run = serveSearch(Dir.path(), 2, 300, LongPoll);
  expectServedByWorkers(Run, 300);
  EXPECT_EQ(trajectory(Run.Result), trajectory(localSearch(300)));
  uint64_t Evaluated = 0;
  for (const WorkerStats &W : Run.Workers)
    Evaluated += W.TasksEvaluated;
  EXPECT_EQ(Evaluated, Run.Stats.WorkerResults);
  EXPECT_LT(Run.Seconds, 25.0) << "a wake-up was lost and the "
                               << LongPoll << " s fallback fired";
}

TEST(Doorbell, UnmappableBellFallsBackToPolling) {
  support::TempDir Dir("locus-bell-");
  ASSERT_TRUE(Dir.valid());
  // A directory where the bell file belongs: every opener fails to map it.
  std::string Bell = Dir.path() + "/queue.bell";
  ASSERT_EQ(::mkdir(Bell.c_str(), 0755), 0);
  ServedRun Run = serveSearch(Dir.path(), 1, 20, /*PollSeconds=*/0.005);
  expectServedByWorkers(Run, 20);
  EXPECT_EQ(trajectory(Run.Result), trajectory(localSearch(20)));
  EXPECT_FALSE(support::Doorbell::open(Bell).ok());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream S;
  S << In.rdbuf();
  return S.str();
}

std::string summaryLine(const std::string &Out, const std::string &Tag) {
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Tag.size() + 1, Tag + " ") == 0)
      return Line.substr(Tag.size() + 1);
  return "";
}

/// The value of "key=value" in a SERVICE summary line ("" if absent).
std::string serviceField(const std::string &ServiceLine,
                         const std::string &Key) {
  std::istringstream In(ServiceLine);
  std::string Field;
  while (In >> Field)
    if (Field.compare(0, Key.size() + 1, Key + "=") == 0)
      return Field.substr(Key.size() + 1);
  return "";
}

/// Runs the search victim to completion (or Deadline); its output file.
std::string runVictim(const std::string &Out, std::vector<std::string> Args,
                      double Deadline, double *Seconds) {
  support::ChildProcessOptions Opts;
  Opts.Argv = {LOCUS_SEARCH_VICTIM};
  Opts.Argv.insert(Opts.Argv.end(), Args.begin(), Args.end());
  Opts.OutputPath = Out;
  double T0 = monotonicSeconds();
  auto CP = support::ChildProcess::spawn(Opts);
  EXPECT_TRUE(CP.ok()) << CP.message();
  if (!CP.ok())
    return "";
  bool Exited = CP->waitExit(Deadline);
  *Seconds = monotonicSeconds() - T0;
  EXPECT_TRUE(Exited) << "still running after " << Deadline << " s";
  CP->kill();
  EXPECT_EQ(CP->exitCode(), 0) << CP->describeExit() << "\n" << readFile(Out);
  return readFile(Out);
}

TEST(Doorbell, WorkerProcessIsWokenByTheCoordinatorsAppends) {
  // The victim coordinator spawns one real worker process through
  // ChildProcess; both sides get the long fallback period, so every task
  // reaches the worker, and every result the coordinator, only through the
  // shared futex word.
  support::TempDir Dir("locus-bell-");
  ASSERT_TRUE(Dir.valid());
  std::string D = Dir.path();
  double LocalSeconds = 0, ServedSeconds = 0;
  std::string Local =
      runVictim(D + "/local.out",
                {"--searcher", "de", "--journal", D + "/local.rlog",
                 "--budget", "8", "--seed", "5"},
                240, &LocalSeconds);
  std::string Served = runVictim(
      D + "/served.out",
      {"--searcher", "de", "--journal", D + "/served.rlog", "--budget", "8",
       "--seed", "5", "--serve", "1", "--queue-dir", D + "/q", "--poll",
       "120"},
      240, &ServedSeconds);

  ASSERT_FALSE(summaryLine(Local, "BEST").empty()) << Local;
  EXPECT_EQ(summaryLine(Served, "BEST"), summaryLine(Local, "BEST"));
  EXPECT_EQ(summaryLine(Served, "METRIC"), summaryLine(Local, "METRIC"));
  EXPECT_EQ(summaryLine(Served, "EVALS"), summaryLine(Local, "EVALS"));
  std::string Svc = summaryLine(Served, "SERVICE");
  // Repeats of an assessed projection never become tasks; every task
  // that did was evaluated by the worker.
  EXPECT_FALSE(serviceField(Svc, "submitted").empty()) << Svc;
  EXPECT_EQ(serviceField(Svc, "worker"), serviceField(Svc, "submitted")) << Svc;
  EXPECT_EQ(serviceField(Svc, "local"), "0") << Svc;
  EXPECT_NE(Svc.find("spawned=1 "), std::string::npos) << Svc;
  EXPECT_LT(ServedSeconds, LocalSeconds + 30)
      << "a cross-process wake-up was lost and the 120 s fallback fired";
}

} // namespace
} // namespace locus
