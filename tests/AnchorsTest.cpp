//===- AnchorsTest.cpp - Every determinism contract as one table --------===//
//
// A seeded search proposes the same points and sees the same outcomes
// however it is run. Each row of the mode table below runs every seeded
// search of one corpus and must reproduce its full History (point key,
// valid, failure kind, detail, metric bits) as pinned in
// tests/data/prune_history_golden.txt, and journal exactly the bytes a
// serial run writes for it. Each row also checks what only its mode can
// show; DESIGN.md ("Determinism anchors") maps every contract to its rows.
//
// The corpus, in golden order:
//
//   - the 8 PolyBench kernels at N=16: region discovery, annotation of the
//     hottest nest and the Fig. 13 generic program, tuned by bandit and de;
//     the illegal interchanges, tilings and unroll-and-jams it proposes fail
//     inside the objective;
//   - the Fig. 7 program on dgemm 32^3 by bandit and de: its dependent
//     tile ranges are the points the range checks prune;
//   - the generic program on the hand-annotated dgemm 16^3 by all six
//     searchers, and on the six hand-annotated stencils by bandit;
//   - a dependent tile-factor range on dgemm 16^3 by the four searchers
//     the Fig. 7 cases leave out;
//   - an `omp parallel for` choice between a safe and a racy loop, by
//     exhaustive: the racy point fails while it is materialized.
//
// The serial_unpruned row writes the golden; tests/Golden.h says how.
//
//===----------------------------------------------------------------------===//

#include "Golden.h"
#include "InFlightProbe.h"
#include "TestFiles.h"
#include "TestPrograms.h"

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/search/Journal.h"
#include "src/support/RecordLog.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <random>
#include <thread>

namespace locus {
namespace {

using driver::Orchestrator;
using driver::OrchestratorOptions;

/// One seeded search of the corpus.
struct Case {
  std::string Name;
  std::string LocusSource, Source;
  /// Source names no region: region discovery on the tiny machine
  /// annotates its hottest nest (locus_search_victim --annotate-hottest).
  bool AnnotateHottest = false;
  std::shared_ptr<const lang::LocusProgram> Locus;
  /// The target the golden tunes, and the same regions as region
  /// discovery finds them in the target stripped of its annotations.
  std::shared_ptr<const cir::Program> Annotated, Discovered;
  std::string Searcher;
  int Budget = 0;
  uint64_t Seed = 0;
};

std::shared_ptr<cir::Program> parseC(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

/// \p Src with its hand annotations stripped, its one nest rediscovered and
/// annotated under the hand label \p Region.
std::shared_ptr<const cir::Program> rediscover(const std::string &Src,
                                               const std::string &Region) {
  std::shared_ptr<cir::Program> P =
      parseC(analysis::stripLocusRegionPragmas(Src));
  if (!P)
    return nullptr;
  analysis::DiscoveryReport R = analysis::discoverRegions(*P);
  EXPECT_EQ(R.annotatable().size(), 1u) << Region;
  for (analysis::NestCandidate &C : R.Candidates)
    if (C.Verdict != analysis::CandidateVerdict::Rejected)
      C.Name = Region;
  Expected<int> Injected = analysis::annotateRegions(*P, R);
  EXPECT_TRUE(Injected.ok()) << Injected.message();
  return Injected.ok() ? P : nullptr;
}

std::vector<Case> buildCorpus() {
  std::vector<Case> Cases;
  uint64_t Seed = 7;
  auto Add = [&](const std::string &Workload, const std::string &LocusSrc,
                 const std::string &Source, bool Hottest,
                 std::shared_ptr<const cir::Program> Annotated,
                 std::shared_ptr<const cir::Program> Discovered,
                 const std::vector<std::string> &Searchers, int Budget) {
    auto L = lang::parseLocusProgram(LocusSrc);
    EXPECT_TRUE(L.ok()) << Workload << ": " << L.message();
    if (!L.ok() || !Annotated || !Discovered)
      return;
    std::shared_ptr<const lang::LocusProgram> Locus = std::move(*L);
    for (const std::string &S : Searchers)
      Cases.push_back({Workload + "/" + S, LocusSrc, Source, Hottest, Locus,
                       Annotated, Discovered, S, Budget, Seed++});
  };
  // A hand-annotated target, tuned as annotated or rediscovered.
  auto AddHand = [&](const std::string &Workload, const std::string &LocusSrc,
                     const std::string &Source, const std::string &Region,
                     const std::vector<std::string> &Searchers, int Budget) {
    Add(Workload, LocusSrc, Source, false, parseC(Source),
        rediscover(Source, Region), Searchers, Budget);
  };

  for (const std::string &Kernel : workloads::polybenchKernels()) {
    std::string Source = workloads::polybenchSource(Kernel, 16);
    std::shared_ptr<cir::Program> C = parseC(Source);
    if (!C)
      continue;
    analysis::DiscoveryOptions DOpts;
    DOpts.Machine = machine::MachineConfig::tiny();
    analysis::DiscoveryReport Report = analysis::discoverRegions(*C, DOpts);
    EXPECT_FALSE(Report.annotatable(1).empty()) << Kernel;
    if (Report.annotatable(1).empty() ||
        !analysis::annotateRegions(*C, Report, 1).ok())
      continue;
    Add(Kernel, analysis::genericLocusProgram(*Report.annotatable(1).front()),
        Source, true, C, C, {"bandit", "de"}, 30);
  }
  std::string Fig7 = workloads::dgemmLocusFig7(16);
  std::string Dgemm32 = workloads::dgemmSource(32, 32, 32);
  AddHand("dgemm_fig7", Fig7, Dgemm32, "matmul", {"bandit", "de"}, 40);

  // Appended after the cases above, which keep their seeds and lines.
  std::string Dgemm16 = workloads::dgemmSource(16, 16, 16);
  AddHand("dgemm16", analysis::genericLocusProgram("matmul"), Dgemm16,
          "matmul",
          {"exhaustive", "random", "hillclimb", "de", "bandit", "tpe"}, 12);
  for (workloads::StencilKind K :
       {workloads::StencilKind::Jacobi1D, workloads::StencilKind::Heat1D,
        workloads::StencilKind::Seidel1D, workloads::StencilKind::Jacobi2D,
        workloads::StencilKind::Heat2D, workloads::StencilKind::Seidel2D})
    AddHand(workloads::stencilName(K), analysis::genericLocusProgram("stencil"),
            workloads::stencilSource(K, 4, 12), "stencil", {"bandit"}, 8);
  AddHand("range", test::DependentRangeLocus, Dgemm16, "matmul",
          {"exhaustive", "random", "hillclimb", "tpe"}, 24);
  // Discovery would find the region's two loops as two nests: the race case
  // tunes its hand annotation in every row.
  std::shared_ptr<const cir::Program> Race = parseC(test::TwoLoopSource);
  Add("race", test::ompForChoice("\"0\", \"1\""), test::TwoLoopSource, false,
      Race, Race, {"exhaustive"}, 30);
  return Cases;
}

const std::vector<Case> &corpus() {
  static const std::vector<Case> Cases = buildCorpus();
  return Cases;
}

/// Where a row's searches evaluate their variants.
enum class Serve {
  Local,     ///< the in-process pool
  Threads,   ///< tuning service, Orchestrator::runWorker threads
  Processes, ///< tuning service, re-exec'd locus_search_victim workers
};

/// Which journal prefixes a row resumes every case from.
enum class Resume {
  Off,
  Seeded,   ///< one seeded cut per case
  EveryFig7 ///< every cut of the Fig. 7 cases, one seeded cut elsewhere
};

/// One row: how every case of the corpus is searched. Serve rows keep two
/// assessments in flight (Jobs), one per worker.
struct Mode {
  const char *Name;
  int Jobs = 1;
  bool Prune = true;
  bool VerifyEach = false;
  bool EvalCache = true;
  Serve Served = Serve::Local;
  Resume Resumed = Resume::Off;
  bool Discovered = false;
};

void PrintTo(const Mode &M, std::ostream *OS) { *OS << M.Name; }

/// The row that writes the golden under LOCUS_WRITE_GOLDEN.
const char *const ReferenceRow = "serial_unpruned";

const Mode Rows[] = {
    {.Name = "serial_unpruned", .Prune = false},
    {.Name = "serial_pruned"},
    {.Name = "pooled_unpruned", .Jobs = 4, .Prune = false},
    {.Name = "pooled_pruned", .Jobs = 4},
    {.Name = "no_eval_cache", .EvalCache = false},
    {.Name = "serve_threads", .Jobs = 2, .Served = Serve::Threads},
    {.Name = "serve_processes", .Jobs = 2, .Served = Serve::Processes},
    {.Name = "resume", .Resumed = Resume::EveryFig7},
    {.Name = "discovered", .Discovered = true},
    {.Name = "serve_discovered_unpruned",
     .Jobs = 2,
     .Prune = false,
     .Served = Serve::Threads,
     .Discovered = true},
    {.Name = "resume_pooled_verify_each",
     .Jobs = 4,
     .VerifyEach = true,
     .Resumed = Resume::Seeded},
};

OrchestratorOptions options(const Case &K, const Mode &M) {
  OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.SearcherName = K.Searcher;
  Opts.MaxEvaluations = K.Budget;
  Opts.Seed = K.Seed;
  Opts.Jobs = M.Jobs;
  Opts.StaticPrune = M.Prune;
  // Pinned either way: the asan test preset sets LOCUS_VERIFY_EACH.
  Opts.VerifyEach = M.VerifyEach;
  Opts.UseEvalCache = M.EvalCache;
  Opts.JournalSyncMode = search::JournalSync::None;
  return Opts;
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::trunc | std::ios::binary);
  Out << Bytes;
  EXPECT_TRUE(Out.good()) << Path;
}

/// Searches \p K as \p M does, with \p Opts (options(K, M) plus the
/// run's journal) and, in serve rows, two workers.
Expected<driver::SearchWorkflowResult> search(const Case &K, const Mode &M,
                                              OrchestratorOptions Opts) {
  const cir::Program &Target = M.Discovered ? *K.Discovered : *K.Annotated;
  if (M.Served == Serve::Local)
    return Orchestrator(*K.Locus, Target, Opts).runSearch();

  support::TempDir Dir("locus-anchor-");
  std::string Queue = Dir.path() + "/queue";
  Opts.Serve.QueueDir = Queue;
  // A served search must be served by its workers: it never degrades to
  // local evaluation, and one that stalls (say, a queue fold that loses
  // results) is stopped after a minute, so the row fails on a short
  // History instead of hanging.
  Opts.Serve.DegradeGraceSeconds = 3600;
  std::atomic<bool> Stop{false};
  Opts.StopFlag = &Stop;
  std::mutex WatchM;
  std::condition_variable WatchCv;
  bool Finished = false;
  std::thread Watchdog([&] {
    std::unique_lock<std::mutex> L(WatchM);
    if (!WatchCv.wait_for(L, std::chrono::minutes(1),
                          [&] { return Finished; }))
      Stop = true;
  });
  std::vector<std::thread> Workers;
  if (M.Served == Serve::Threads) {
    for (int I = 0; I < 2; ++I)
      Workers.emplace_back([&, I] {
        service::WorkerOptions W;
        W.QueueDir = Queue;
        W.WorkerId = "thread" + std::to_string(I);
        W.StopFlag = &Stop;
        auto R = Orchestrator(*K.Locus, Target, options(K, M)).runWorker(W);
        EXPECT_TRUE(R.ok()) << R.message();
      });
  } else {
    // The workers parse the very source text: a printed program would
    // move the source locations that failure details quote.
    EXPECT_FALSE(M.Discovered) << "worker processes tune the annotated target";
    std::string LocusFile = Dir.path() + "/program.locus";
    std::string SourceFile = Dir.path() + "/source.c";
    writeFile(LocusFile, K.LocusSource);
    writeFile(SourceFile, K.Source);
    std::vector<std::string> Argv = {
        LOCUS_SEARCH_VICTIM, "--worker", "--queue-dir", Queue,
        "--locus",           LocusFile,  "--source",    SourceFile};
    if (K.AnnotateHottest)
      Argv.push_back("--annotate-hottest");
    Opts.Serve.Workers = 2;
    Opts.Serve.WorkerArgv = [Argv](int, int) { return Argv; };
  }
  auto R = Orchestrator(*K.Locus, Target, Opts).runSearch();
  {
    std::lock_guard<std::mutex> L(WatchM);
    Finished = true;
  }
  WatchCv.notify_all();
  Watchdog.join();
  Stop = true;
  for (std::thread &T : Workers)
    T.join();
  return R;
}

/// One golden line per History record: case, step, point key, valid,
/// failure kind, detail and the metric as a hex float (exact bits).
std::vector<std::string>
historyLines(const Case &K, const std::vector<search::EvalRecord> &History) {
  std::vector<std::string> Lines;
  for (size_t I = 0; I < History.size(); ++I) {
    const search::EvalRecord &Rec = History[I];
    char Metric[64];
    std::snprintf(Metric, sizeof(Metric), "%a", Rec.Metric);
    Lines.push_back(K.Name + "\t" + std::to_string(I) + "\t" +
                    test::escapeField(Rec.P.key()) + "\t" +
                    (Rec.Valid ? "1" : "0") + "\t" +
                    search::failureKindName(Rec.Failure) + "\t" +
                    test::escapeField(Rec.Detail) + "\t" + Metric);
  }
  return Lines;
}

/// Expects the searcher's best point to be the first minimum of its
/// History, so a row that reproduces the History reproduces the winner.
void expectBestOfHistory(const search::SearchResult &S,
                         const std::string &What) {
  const search::EvalRecord *Best = nullptr;
  for (const search::EvalRecord &Rec : S.History)
    if (Rec.Valid && (!Best || Rec.Metric < Best->Metric))
      Best = &Rec;
  EXPECT_EQ(S.Found, Best != nullptr) << What;
  if (Best && S.Found) {
    EXPECT_EQ(S.Best.key(), Best->P.key()) << What;
    EXPECT_EQ(S.BestMetric, Best->Metric) << What;
  }
}

/// The journal a serial run writes for \p R's History: the run header,
/// then one frame per record.
std::string journalOf(const Case &K, const driver::SearchWorkflowResult &R) {
  search::RunHeader H{R.Space.fingerprint(),
                      search::journalConfigDigest(K.Searcher, K.Seed)};
  std::string Bytes = support::RecordLog::encodeHeaderBlock(
      search::encodeRunHeader(search::JournalTag, H));
  for (const search::EvalRecord &Rec : R.Search.History)
    Bytes += support::RecordLog::encodeFrame(
        search::SearchJournal::encodeRecord(Rec));
  return Bytes;
}

/// Checks one search of \p K, journaled at \p Journal: its History and
/// its journal's records must be golden records [Begin, End) (unless
/// \p Writing), and the journal the bytes of that History. Returns the
/// History's golden lines.
std::vector<std::string> checkSearch(const Case &K,
                                     const driver::SearchWorkflowResult &R,
                                     const std::string &Journal,
                                     const test::Golden &G, size_t Begin,
                                     size_t End, const std::string &What,
                                     bool Writing = false) {
  std::vector<std::string> Lines = historyLines(K, R.Search.History);
  expectBestOfHistory(R.Search, What);
  EXPECT_TRUE(test::slurp(Journal) == journalOf(K, R))
      << What << ": the journal is not the bytes of its History";
  if (Writing)
    return Lines;
  G.expectRecords(Lines, Begin, End, What);
  std::vector<search::EvalRecord> Journaled;
  auto Scan = support::RecordLog::scan(Journal);
  EXPECT_TRUE(Scan.ok()) << What << ": " << Scan.message();
  for (const std::string &Payload : Scan.ok() ? Scan->Records
                                              : std::vector<std::string>()) {
    auto Rec = search::SearchJournal::decodeRecord(Payload, R.Space);
    EXPECT_TRUE(Rec.ok()) << What << ": " << Rec.message();
    if (Rec.ok())
      Journaled.push_back(std::move(*Rec));
  }
  G.expectRecords(historyLines(K, Journaled), Begin, End, What + " journal");
  return Lines;
}

/// The journal prefixes row \p M resumes \p K from.
std::vector<size_t> cuts(const Case &K, const Mode &M, size_t Records) {
  std::vector<size_t> Cuts;
  if (M.Resumed == Resume::EveryFig7 && K.Name.rfind("dgemm_fig7/", 0) == 0) {
    for (size_t C = 0; C <= Records; ++C)
      Cuts.push_back(C);
  } else if (M.Resumed != Resume::Off) {
    std::mt19937_64 Rng(K.Seed);
    Cuts.push_back(Rng() % (Records + 1));
  }
  return Cuts;
}

/// The journal image a process killed after \p Cut records leaves: the
/// first \p Cut frames of \p Journal, plus half of the next frame if any.
std::string tornPrefix(const support::RecordLogScan &Journal, size_t Cut) {
  std::string Image = support::RecordLog::encodeHeaderBlock(Journal.Header);
  for (size_t I = 0; I < Cut; ++I)
    Image += support::RecordLog::encodeFrame(Journal.Records[I]);
  if (Cut < Journal.Records.size()) {
    std::string Torn = support::RecordLog::encodeFrame(Journal.Records[Cut]);
    Image.append(Torn, 0, Torn.size() / 2);
  }
  return Image;
}

/// Runs Fn(0), ..., Fn(N - 1), four at a time: the searches of a corpus
/// share nothing.
void parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next++) < N;)
      Fn(I);
  };
  std::vector<std::thread> Threads;
  for (int T = 1; T < 4; ++T)
    Threads.emplace_back(Work);
  Work();
  for (std::thread &T : Threads)
    T.join();
}

/// One case of a row: its golden records and what its first search gave.
struct CaseRun {
  const Case *K = nullptr;
  size_t Begin = 0, End = 0; ///< its golden records
  std::string What;          ///< "<row> <case>", for messages
  std::vector<std::string> Lines;
  int RangePruned = 0;
  uint64_t CacheMisses = 0;
  int PoolPeak = 0; ///< most of its variant runs in flight at once
  /// Holds the journal and the eval cache its resumes start from.
  std::unique_ptr<test::TempFile> Journal;
  std::optional<support::RecordLogScan> Scan; ///< of that journal
};

/// Searches C's case as row \p M does, checks the search (see checkSearch)
/// and what only the row's mode can show.
void runFirst(CaseRun &C, const Mode &M, const test::Golden &G,
              bool Writing) {
  const Case &K = *C.K;
  // Pool rows prove their variant runs overlapped. The hold is short: a
  // batch in which only one variant reaches the simulator (the others fail
  // or hit the cache) holds for all of it.
  test::InFlightProbe Probe(2, std::chrono::milliseconds(2),
                            std::this_thread::get_id());
  C.Journal = std::make_unique<test::TempFile>("journal.rlog");
  OrchestratorOptions Opts = options(K, M);
  Opts.JournalPath = C.Journal->Path;
  if (M.Served == Serve::Local && M.Jobs > 1)
    Opts.InitHook = [&Probe](eval::ProgramEvaluator &) { Probe.enter(); };
  if (M.Resumed != Resume::Off)
    Opts.CacheDir = C.Journal->Dir.path();
  auto R = search(K, M, Opts);
  if (!R.ok()) {
    ADD_FAILURE() << C.What << ": " << R.message();
    return;
  }
  C.Lines = checkSearch(K, *R, Opts.JournalPath, G, C.Begin, C.End, C.What,
                        Writing);
  auto Scan = support::RecordLog::scan(Opts.JournalPath);
  if (Scan.ok())
    C.Scan = std::move(*Scan);

  // Projection reuse is decided on the search thread, from the History
  // alone: every row serves exactly the points its pruning's serial row
  // serves, whatever its pool, service or cache.
  Mode Serial{.Name = "serial", .Prune = M.Prune};
  auto Ref =
      Orchestrator(*K.Locus, *K.Annotated, options(K, Serial)).runSearch();
  if (Ref.ok()) {
    EXPECT_EQ(R->Search.ProjectionHits, Ref->Search.ProjectionHits) << C.What;
  } else {
    ADD_FAILURE() << C.What << " serial: " << Ref.message();
  }

  C.RangePruned = R->Search.PrunedStaticByRange;
  C.CacheMisses = R->Search.CacheMisses;
  C.PoolPeak = Probe.peak();
  if (!M.Prune) {
    EXPECT_EQ(R->Search.PrunedStatic, 0) << C.What;
    EXPECT_EQ(R->Search.PrunedStaticByRange, 0) << C.What;
  }
  if (!M.EvalCache) {
    EXPECT_EQ(R->Search.CacheHits + R->Search.CacheMisses, 0u) << C.What;
  }
  if (M.Served == Serve::Local) {
    EXPECT_EQ(R->Search.PoolJobs, M.Jobs) << C.What;
  } else {
    EXPECT_GT(R->Service.WorkerResults, 0u) << C.What;
  }
}

/// Resumes C's case from its journal cut after \p Cut records, and checks
/// the search (see checkSearch) and how much of it was replayed.
void runResumed(const CaseRun &C, const Mode &M, const test::Golden &G,
                size_t Cut) {
  std::string What = C.What + " resumed after " + std::to_string(Cut);
  OrchestratorOptions Opts = options(*C.K, M);
  Opts.JournalPath =
      C.Journal->Dir.path() + "/resumed" + std::to_string(Cut) + ".rlog";
  Opts.ResumeFromJournal = true;
  // The outcomes it evaluates afresh come from the first search's cache,
  // as with --resume --cache-dir; outcomes never depend on the cache.
  Opts.CacheDir = C.Journal->Dir.path();
  Opts.CacheReadOnly = true;
  writeFile(Opts.JournalPath, tornPrefix(*C.Scan, Cut));
  auto R = search(*C.K, M, Opts);
  if (!R.ok()) {
    ADD_FAILURE() << What << ": " << R.message();
    return;
  }
  EXPECT_EQ(R->Search.ReplayedEvaluations, static_cast<int>(Cut)) << What;
  checkSearch(*C.K, *R, Opts.JournalPath, G, C.Begin, C.End, What);
}

class Anchors : public ::testing::TestWithParam<Mode> {};

TEST_P(Anchors, ReproduceTheGolden) {
  const Mode &M = GetParam();
  test::Golden G("prune_history_golden.txt");
  const std::vector<std::string> &Golden = G.records();
  bool Writing =
      std::string(M.Name) == ReferenceRow && test::Golden::rewriting();

  // The golden records of each case: those after the previous case's.
  std::vector<CaseRun> Runs;
  size_t At = 0;
  for (const Case &K : corpus()) {
    CaseRun C;
    C.K = &K;
    C.What = std::string(M.Name) + " " + K.Name;
    C.Begin = C.End = At;
    while (C.End < Golden.size() &&
           Golden[C.End].compare(0, K.Name.size() + 1, K.Name + "\t") == 0)
      ++C.End;
    At = C.End;
    Runs.push_back(std::move(C));
  }
  EXPECT_EQ(At, Golden.size()) << "golden lines of no corpus case";

  // Every case once, largest budget first; then every resume.
  std::vector<CaseRun *> ByBudget;
  for (CaseRun &C : Runs)
    ByBudget.push_back(&C);
  std::stable_sort(ByBudget.begin(), ByBudget.end(),
                   [](const CaseRun *A, const CaseRun *B) {
                     return A->K->Budget > B->K->Budget;
                   });
  parallelFor(ByBudget.size(),
              [&](size_t I) { runFirst(*ByBudget[I], M, G, Writing); });
  std::vector<std::pair<const CaseRun *, size_t>> Resumes;
  for (const CaseRun &C : Runs)
    if (C.Scan)
      for (size_t Cut : cuts(*C.K, M, C.Scan->Records.size()))
        Resumes.emplace_back(&C, Cut);
  parallelFor(Resumes.size(), [&](size_t I) {
    runResumed(*Resumes[I].first, M, G, Resumes[I].second);
  });

  std::vector<std::string> All;
  int RangePruned = 0, PoolPeak = 0;
  uint64_t CacheMisses = 0;
  for (const CaseRun &C : Runs) {
    All.insert(All.end(), C.Lines.begin(), C.Lines.end());
    RangePruned += C.RangePruned;
    CacheMisses += C.CacheMisses;
    PoolPeak = std::max(PoolPeak, C.PoolPeak);
  }
  if (Writing) {
    G.rewrite(All);
    GTEST_SKIP() << "wrote " << All.size() << " golden lines to " << G.path();
  }
  if (M.Prune) {
    EXPECT_GT(RangePruned, 0);
  }
  if (M.EvalCache && M.Served == Serve::Local) {
    EXPECT_GT(CacheMisses, 0u);
  }
  if (M.Served == Serve::Local && M.Jobs > 1) {
    EXPECT_GE(PoolPeak, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, Anchors, ::testing::ValuesIn(Rows),
                         [](const ::testing::TestParamInfo<Mode> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
} // namespace locus
