//===- pipeline_bench.cpp - End-to-end and per-layer tuning benchmark -----===//
//
// One benchmark for the whole tuning pipeline. Each workload is a closed
// loop: one searcher proposes its next batch only after the previous one
// committed. Three seeded workloads, each dominated by a different layer:
//
//   dgemm_fig7          Fig. 7 program on dgemm 32^3, simulated xeonE5v3
//                       (10 cores), bandit, budget 100, 12 seeded searches:
//                       evaluation-bound.
//   polybench_discover  --discover --tune on the 8 PolyBench kernels at
//                       N=16 (discover, annotate the top nest, Fig. 13
//                       generic program), xeon, bandit, budget 100, 3
//                       seeded searches per kernel: per-run fixed costs
//                       (CacheSim setup, prepare).
//   dgemm_serve         Fig. 5 program on dgemm 24^3, tiny machine, de,
//                       budget 48, 12 seeded searches, each served by 2
//                       re-exec'd worker processes with a Full-sync journal
//                       and a cold --cache-dir: dispatch-bound.
//
// --trace 0 runs the workload through driver::Orchestrator::runSearch with
// no instrumentation and reports the end-to-end metrics: tune_s (the sum
// over searches of each one's fastest repetition), setup_s, cpu_s,
// best_speedup and peak_rss_mb. On the two workloads that search in this
// process, tune_s and cpu_s are scaled to a reference host speed measured
// by a fixed probe (see HostSpeed); the measured values are printed beside
// them. --trace 1 drives the same searches through the layers' public entry points with an
// in-memory span around each call, checks that the traced trajectory is
// bit-identical to the untraced one, and reports the per-layer table.
//
// Every run checks its outputs outside the timed region: trajectories are
// deterministic across rounds, serve equals a local --jobs 1 run, and the
// baseline and best variant of every search are compiled natively
// (eval::evaluateNative) and their checksums compared with each other and
// with the simulator.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// Usage:
//   pipeline_bench --workload NAME --seed S [--seconds T] [--trace 0|1]
//                  [--trace-file FILE]
// (--serve-worker QUEUE_DIR CACHE_DIR TRACED is the re-exec'd worker.)
//
// All on-disk state (queues, journals, cache dirs, native workdirs) lives
// under support::TempDir directories in $TMPDIR and is removed on exit.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/LegalityOracle.h"
#include "src/analysis/RegionDiscovery.h"
#include "src/analysis/TransformPlan.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Optimizer.h"
#include "src/search/Journal.h"
#include "src/search/PersistentEvalCache.h"
#include "src/search/PointCodec.h"
#include "src/support/Posix.h"
#include "src/support/RecordLog.h"
#include "src/support/Signals.h"
#include "src/support/Subprocess.h"
#include "src/workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace locus;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool SanitizerBuild = true;
#else
constexpr bool SanitizerBuild = false;
#endif
#else
constexpr bool SanitizerBuild = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool OptimizedBuild = true;
#else
constexpr bool OptimizedBuild = false;
#endif

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuSeconds() {
  double Total = 0;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage U{};
    getrusage(Who, &U);
    Total += static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
             static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) *
                 1e-6;
  }
  return Total;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, \p Q in (0, 1].
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

std::string hexEncode(const std::string &S) {
  static const char *Digits = "0123456789abcdef";
  std::string Out;
  Out.reserve(S.size() * 2);
  for (unsigned char C : S) {
    Out += Digits[C >> 4];
    Out += Digits[C & 15];
  }
  return Out.empty() ? "-" : Out;
}

std::string hexDecode(const std::string &S) {
  std::string Out;
  if (S == "-")
    return Out;
  for (size_t I = 0; I + 1 < S.size(); I += 2)
    Out += static_cast<char>(std::stoi(S.substr(I, 2), nullptr, 16));
  return Out;
}

//===----------------------------------------------------------------------===//
// In-memory spans
//===----------------------------------------------------------------------===//

struct SpanRec {
  std::string Name;
  int64_t Start = 0, End = 0; ///< steady_clock ns (CLOCK_MONOTONIC: one
                              ///< timebase for the coordinator and workers)
  int Id = -1, Parent = -1;
  int64_t Point = -1; ///< proposal index of the point the span belongs to
  std::string Key;    ///< the point's key (workers know only this)
  int Search = 0;     ///< ordinal of the traced search within the round
  long Pid = 0;
  int Tid = 0;
};

int threadIndex() {
  static std::atomic<int> Next{0};
  thread_local int Mine = Next++;
  return Mine;
}

/// Spans and counters of one traced round. Thread-safe: the evaluation pool
/// assesses points concurrently in serve mode.
class Tracer {
public:
  int begin(const std::string &Name, int64_t Point, const std::string &Key) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> L(M);
    SpanRec R;
    R.Name = Name;
    R.Start = Now;
    R.Id = static_cast<int>(Spans.size());
    R.Parent = open().empty() ? Ambient : open().back();
    R.Point = Point;
    R.Key = Key;
    if (R.Parent >= 0 && Point < 0) {
      R.Point = Spans[R.Parent].Point;
      R.Key = Spans[R.Parent].Key;
    }
    R.Search = CurrentSearch;
    R.Pid = static_cast<long>(::getpid());
    R.Tid = threadIndex();
    Spans.push_back(std::move(R));
    open().push_back(Spans.back().Id);
    return Spans.back().Id;
  }

  void end(int Id) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> L(M);
    Spans[Id].End = Now;
    open().pop_back();
    streamSpan(Spans[Id]);
  }

  /// A span whose interval is already known (a marker when Start == End).
  void interval(const std::string &Name, int64_t Start, int64_t End,
                const std::string &Key) {
    std::lock_guard<std::mutex> L(M);
    SpanRec R;
    R.Name = Name;
    R.Start = Start;
    R.End = End;
    R.Id = static_cast<int>(Spans.size());
    R.Key = Key;
    R.Search = CurrentSearch;
    R.Pid = static_cast<long>(::getpid());
    R.Tid = threadIndex();
    Spans.push_back(std::move(R));
    streamSpan(Spans.back());
  }

  void count(const std::string &Name, double V) {
    std::lock_guard<std::mutex> L(M);
    Counters[Name] += V;
    stream("C " + Name + ' ' + std::to_string(V));
  }

  void sample(const std::string &Name, double V) {
    std::lock_guard<std::mutex> L(M);
    Samples[Name].push_back(V);
    stream("V " + Name + ' ' + std::to_string(V));
  }

  /// Spans opened on threads with no open span (the evaluation pool's
  /// workers) become children of \p Id.
  void setAmbientParent(int Id) { Ambient = Id; }

  /// Starts the next search of the round: proposal indices restart.
  void beginSearch() {
    std::lock_guard<std::mutex> L(M);
    ++CurrentSearch;
    PointIndex.clear();
    NextIndex = 0;
  }

  /// Proposal index of a point, assigned in proposal order by the static
  /// filter (which the search loop calls on its own thread, in order).
  int64_t assignIndex(const std::string &Key) {
    std::lock_guard<std::mutex> L(M);
    auto [It, New] = PointIndex.try_emplace(Key, NextIndex);
    if (New)
      ++NextIndex;
    return It->second;
  }
  int64_t indexOf(const std::string &Key) {
    std::lock_guard<std::mutex> L(M);
    auto It = PointIndex.find(Key);
    return It == PointIndex.end() ? -1 : It->second;
  }

  void noteEvaluated(const search::Point &P) {
    std::string Text = search::serializePoint(P);
    std::lock_guard<std::mutex> L(M);
    stream("E " + hexEncode(Text));
    Evaluated.push_back(std::move(Text));
  }

  /// Worker side: from now on every finished span, counter update, sample
  /// and evaluated point is also appended to \p Path as one text line. The
  /// coordinator SIGKILLs its workers at shutdown, so nothing may wait for
  /// the worker to exit.
  bool streamTo(const std::string &Path) {
    std::lock_guard<std::mutex> L(M);
    StreamFd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                      0644);
    return StreamFd >= 0;
  }
  ~Tracer() {
    if (StreamFd >= 0)
      ::close(StreamFd);
  }
  Tracer() = default;
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Folds a worker's saved trace in. Span ids are rebased; points are
  /// mapped to this process's proposal indices through their keys.
  void merge(const std::string &Path, long Pid) {
    std::ifstream In(Path);
    std::string Line;
    std::lock_guard<std::mutex> L(M);
    int Base = static_cast<int>(Spans.size());
    while (std::getline(In, Line)) {
      std::istringstream Is(Line);
      std::string Tag, Name, Hex;
      Is >> Tag;
      if (Tag == "S") {
        SpanRec R;
        Is >> R.Name >> R.Start >> R.End >> R.Id >> R.Parent >> R.Tid >> Hex;
        R.Id += Base;
        if (R.Parent >= 0)
          R.Parent += Base;
        R.Key = hexDecode(Hex);
        auto It = PointIndex.find(R.Key);
        R.Point = It == PointIndex.end() ? -1 : It->second;
        R.Search = CurrentSearch;
        R.Pid = Pid;
        Spans.push_back(std::move(R));
      } else if (Tag == "C") {
        double V = 0;
        Is >> Name >> V;
        Counters[Name] += V;
      } else if (Tag == "V") {
        double V = 0;
        Is >> Name >> V;
        Samples[Name].push_back(V);
      } else if (Tag == "E") {
        Is >> Hex;
        Evaluated.push_back(hexDecode(Hex));
      }
    }
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  void writeChromeTrace(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write trace %s\n", Path.c_str());
      return;
    }
    int64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
    for (const SpanRec &S : Spans)
      T0 = std::min(T0, S.Start);
    std::fprintf(F, "{\"traceEvents\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      std::string Cat = S.Name.substr(0, S.Name.find('.'));
      std::fprintf(F,
                   "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %ld, \"tid\": %d, "
                   "\"args\": {\"point\": %lld, \"span\": %d, \"parent\": "
                   "%d}}%s\n",
                   S.Name.c_str(), Cat.c_str(), (S.Start - T0) / 1e3,
                   (S.End - S.Start) / 1e3, S.Pid, S.Tid,
                   static_cast<long long>(S.Point), S.Id, S.Parent,
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]}\n");
    std::fclose(F);
  }

  // Read after the round, single-threaded.
  std::vector<SpanRec> Spans;
  std::map<std::string, double> Counters;
  std::map<std::string, std::vector<double>> Samples;
  std::vector<std::string> Evaluated; ///< serialized points the evaluator ran

private:
  static std::vector<int> &open() {
    thread_local std::vector<int> Stack;
    return Stack;
  }

  void stream(const std::string &Line) {
    if (StreamFd < 0)
      return;
    std::string Out = Line + '\n';
    (void)support::retryWriteAll(StreamFd, Out.data(), Out.size());
  }
  void streamSpan(const SpanRec &S) {
    std::ostringstream Os;
    Os << "S " << S.Name << ' ' << S.Start << ' ' << S.End << ' ' << S.Id << ' '
       << S.Parent << ' ' << S.Tid << ' ' << hexEncode(S.Key);
    stream(Os.str());
  }

  std::mutex M;
  int StreamFd = -1;
  int Ambient = -1;
  int CurrentSearch = 0;
  std::map<std::string, int64_t> PointIndex;
  int64_t NextIndex = 0;
};

/// RAII span.
class Span {
public:
  Span(Tracer &T, const std::string &Name, int64_t Point = -1,
       const std::string &Key = {})
      : T(T), Id(T.begin(Name, Point, Key)) {}
  ~Span() { T.end(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Workload { DgemmFig7, PolybenchDiscover, DgemmServe };

struct WorkloadInfo {
  Workload W;
  const char *Name;
};

const WorkloadInfo Workloads[] = {
    {Workload::DgemmFig7, "dgemm_fig7"},
    {Workload::PolybenchDiscover, "polybench_discover"},
    {Workload::DgemmServe, "dgemm_serve"},
};

/// Searches per run (per kernel on polybench_discover), each with its own
/// seed derived from --seed. The seed drives the searcher, and how many
/// variants a search simulates varies a lot from seed to seed (29 to 51 of
/// 100 on dgemm_fig7, 31 to 43 assessments on dgemm_serve); a run averages
/// over several trajectories so its time does not hinge on one of them.
constexpr int Fig7Searches = 12;
constexpr int ServeSearches = 12;
constexpr int PolybenchSearchesPerKernel = 3;

/// One search of a workload: the program under test gets only these inputs.
struct SearchInput {
  std::string Label;
  std::shared_ptr<const lang::LocusProgram> Locus;
  std::shared_ptr<const cir::Program> Baseline;
  driver::OrchestratorOptions Opts;
};

/// splitmix64 of (seed, search index), folded to a readable range.
uint64_t subSeed(uint64_t Seed, int I) {
  uint64_t X = Seed * 1000 + static_cast<uint64_t>(I) + 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return (X ^ (X >> 31)) % 1000003;
}

/// Runs \p Fn inside a span when tracing, bare otherwise.
template <typename Fn> auto spanned(Tracer *T, const char *Name, Fn &&F) {
  if (!T)
    return F();
  Span S(*T, Name);
  return F();
}

Expected<std::shared_ptr<const cir::Program>> parseC(const std::string &Src,
                                                     Tracer *T) {
  using Ret = Expected<std::shared_ptr<const cir::Program>>;
  auto P = spanned(T, "cir.parse", [&] { return cir::parseProgram(Src); });
  if (!P.ok())
    return Ret::error("C parse error: " + P.message());
  return std::shared_ptr<const cir::Program>(std::move(*P));
}

Expected<std::shared_ptr<const lang::LocusProgram>>
parseLocus(const std::string &Src, Tracer *T) {
  using Ret = Expected<std::shared_ptr<const lang::LocusProgram>>;
  auto P =
      spanned(T, "locus.parse", [&] { return lang::parseLocusProgram(Src); });
  if (!P.ok())
    return Ret::error("Locus parse error: " + P.message());
  return std::shared_ptr<const lang::LocusProgram>(std::move(*P));
}

/// Builds a workload's search inputs (the timed set-up: parsing, plus
/// discovery and annotation on polybench_discover).
Expected<std::vector<SearchInput>> buildInputs(Workload W, uint64_t Seed,
                                               Tracer *T) {
  using Ret = Expected<std::vector<SearchInput>>;
  std::vector<SearchInput> Out;
  auto dgemm = [&](int N, const std::string &Locus, int Count,
                   const driver::OrchestratorOptions &Opts) -> Status {
    auto C = parseC(workloads::dgemmSource(N, N, N), T);
    if (!C.ok())
      return Status::error(C.message());
    auto L = parseLocus(Locus, T);
    if (!L.ok())
      return Status::error(L.message());
    for (int I = 0; I < Count; ++I) {
      SearchInput In{"dgemm" + std::to_string(N) + "#" + std::to_string(I),
                     *L, *C, Opts};
      In.Opts.Seed = subSeed(Seed, I);
      Out.push_back(std::move(In));
    }
    return Status::success();
  };

  driver::OrchestratorOptions Opts;
  Status S;
  switch (W) {
  case Workload::DgemmFig7:
    Opts.SearcherName = "bandit";
    Opts.MaxEvaluations = 100;
    Opts.Eval.Machine = machine::MachineConfig::xeonE5v3();
    Opts.Eval.Machine.Cores = 10;
    S = dgemm(32, workloads::dgemmLocusFig7(16), Fig7Searches, Opts);
    break;
  case Workload::DgemmServe:
    Opts.SearcherName = "de";
    Opts.MaxEvaluations = 48;
    Opts.Eval.Machine = machine::MachineConfig::tiny();
    Opts.JournalSyncMode = search::JournalSync::Full;
    Opts.Serve.Workers = 2;
    S = dgemm(24, workloads::dgemmLocusFig5(), ServeSearches, Opts);
    break;
  case Workload::PolybenchDiscover: {
    Opts.SearcherName = "bandit";
    Opts.MaxEvaluations = 100;
    const std::vector<std::string> &Kernels = workloads::polybenchKernels();
    for (size_t I = 0; I < Kernels.size(); ++I) {
      auto C = parseC(workloads::polybenchSource(Kernels[I], 16), T);
      if (!C.ok())
        return Ret::error(Kernels[I] + ": " + C.message());
      analysis::DiscoveryOptions DOpts;
      DOpts.Machine = Opts.Eval.Machine;
      analysis::DiscoveryReport Report = spanned(T, "analysis.discover", [&] {
        return analysis::discoverRegions(**C, DOpts);
      });
      std::shared_ptr<cir::Program> Annotated = (*C)->clone();
      Expected<int> Injected = spanned(T, "analysis.annotate", [&] {
        return analysis::annotateRegions(*Annotated, Report, 1);
      });
      if (!Injected.ok() || Report.annotatable(1).empty())
        return Ret::error(Kernels[I] + ": no annotatable nest");
      auto L = parseLocus(
          analysis::genericLocusProgram(*Report.annotatable(1).front()), T);
      if (!L.ok())
        return Ret::error(Kernels[I] + ": " + L.message());
      for (int J = 0; J < PolybenchSearchesPerKernel; ++J) {
        SearchInput In{Kernels[I] + "#" + std::to_string(J), *L, Annotated,
                       Opts};
        In.Opts.Seed = subSeed(
            Seed, static_cast<int>(I) * PolybenchSearchesPerKernel + J);
        Out.push_back(std::move(In));
      }
    }
    break;
  }
  }
  if (!S.ok())
    return Ret::error(S.message());
  return Out;
}

std::string selfExe() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : std::string();
}

/// Points a dgemm_serve search at a fresh queue, journal and cold cache.
void configureServe(SearchInput &In, const std::string &Dir, bool Traced) {
  std::string Queue = Dir + "/queue", Cache = Dir + "/cache";
  In.Opts.Serve.QueueDir = Queue;
  In.Opts.JournalPath = Dir + "/journal.rlog";
  In.Opts.CacheDir = Cache;
  std::string Exe = selfExe();
  In.Opts.Serve.WorkerArgv = [Exe, Queue, Cache, Traced](int, int) {
    return std::vector<std::string>{Exe,   "--serve-worker",
                                    Queue, Cache,
                                    Traced ? "1" : "0"};
  };
}

/// The local --jobs 1 twin of a search: no service and no journal.
driver::OrchestratorOptions localOptions(driver::OrchestratorOptions Opts) {
  Opts.Serve = service::CoordinatorOptions{};
  Opts.JournalPath.clear();
  Opts.Jobs = 1;
  return Opts;
}

//===----------------------------------------------------------------------===//
// The traced pipeline: runSearch recomposed from public calls
//===----------------------------------------------------------------------===//

lang::Value planArgToValue(const analysis::PlanArg &A) {
  using analysis::PlanArg;
  switch (A.K) {
  case PlanArg::Kind::Int:
    return lang::Value(A.Int);
  case PlanArg::Kind::Float:
    return lang::Value(A.Float);
  case PlanArg::Kind::Str:
    return lang::Value(A.Str);
  case PlanArg::Kind::List: {
    std::vector<lang::Value> Items;
    for (const PlanArg &I : A.List)
      Items.push_back(planArgToValue(I));
    return lang::Value::list(std::move(Items));
  }
  default:
    return lang::Value::none();
  }
}

transform::TransformContext makeContext(const driver::OrchestratorOptions &O,
                                        cir::Program *Prog, bool Verify) {
  transform::TransformContext TCtx;
  TCtx.RequireDeps = O.RequireDeps;
  TCtx.Prog = Prog;
  TCtx.Snippets = O.Snippets;
  TCtx.VerifyEach = Verify && O.VerifyEach;
  TCtx.TrustParallel = O.TrustParallel;
  TCtx.AllowSnippetFiles = O.AllowSnippetFiles;
  return TCtx;
}

/// prepare + run under eval.* spans, with the run's counters.
Expected<eval::RunResult> timedEvaluate(Tracer &T, const cir::Program &P,
                                        const eval::EvalOptions &EOpts,
                                        bool &PrepareFailed) {
  eval::ProgramEvaluator Eval(P, EOpts);
  Status Prep = spanned(&T, "eval.prepare", [&] { return Eval.prepare(); });
  PrepareFailed = !Prep.ok();
  if (!Prep.ok())
    return Expected<eval::RunResult>::error(Prep.message());
  eval::RunResult R = spanned(&T, "eval.run", [&] { return Eval.run(); });
  T.count("eval.runs", 1);
  T.count("eval.iterations", static_cast<double>(R.LoopIterations));
  T.count("eval.mem_accesses", static_cast<double>(R.MemReads + R.MemWrites));
  if (!R.Cache.empty()) {
    T.count("machine.l1_hits", static_cast<double>(R.Cache.front().Hits));
    T.count("machine.l1_accesses", static_cast<double>(R.Cache.front().Hits +
                                                       R.Cache.front().Misses));
    T.count("machine.llc_misses", static_cast<double>(R.Cache.back().Misses));
  }
  if (!R.Ok)
    return Expected<eval::RunResult>::error(R.Error);
  return R;
}

/// What prepareSearch builds: space, plan, baseline reference, deadline and
/// evaluation cache.
struct TracedPrep {
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  std::unique_ptr<lang::LocusProgram> Program;
  search::Space Space;
  analysis::TransformPlan Plan;
  std::optional<eval::RunResult> BaseRun;
  double BaselineCycles = 0;
  double BaselineChecksum = std::numeric_limits<double>::quiet_NaN();
  uint64_t DeadlineIterations = 0;
  search::EvalCache MemCache;
  std::unique_ptr<search::PersistentEvalCache> DiskCache;
  search::VariantOutcomeCache *Cache = nullptr;
};

Expected<std::unique_ptr<TracedPrep>> tracedPrepare(const SearchInput &In,
                                                    Tracer &T) {
  using Ret = Expected<std::unique_ptr<TracedPrep>>;
  const driver::OrchestratorOptions &O = In.Opts;
  auto Prep = std::make_unique<TracedPrep>();
  {
    Span S(T, "locus.optimize");
    std::unique_ptr<cir::Program> Clone = In.Baseline->clone();
    transform::TransformContext TCtx = makeContext(O, Clone.get(), false);
    Prep->Program = lang::optimizeLocusProgram(*In.Locus, *Clone,
                                               Prep->Registry, TCtx);
  }
  {
    Span S(T, "locus.extract");
    std::unique_ptr<cir::Program> Target = In.Baseline->clone();
    transform::TransformContext TCtx = makeContext(O, Target.get(), false);
    lang::LocusInterpreter Interp(*Prep->Program, Prep->Registry);
    lang::ExecOutcome Ex = Interp.extractSpace(*Target, Prep->Space, TCtx,
                                               O.StaticPrune ? &Prep->Plan
                                                             : nullptr);
    if (!Ex.Ok)
      return Ret::error("space extraction failed: " + Ex.Error);
  }
  {
    Span S(T, "driver.baseline");
    bool PrepFailed = false;
    Expected<eval::RunResult> Base =
        timedEvaluate(T, *In.Baseline, O.Eval, PrepFailed);
    if (!Base.ok())
      return Ret::error("baseline evaluation failed: " + Base.message());
    Prep->BaseRun = *Base;
    Prep->BaselineCycles = Base->Cycles;
    Prep->BaselineChecksum = Base->Checksum;
    if (O.VariantDeadlineFactor > 0 && Base->LoopIterations > 0) {
      double Budget = O.VariantDeadlineFactor *
                      static_cast<double>(Base->LoopIterations);
      Prep->DeadlineIterations = Budget >= static_cast<double>(UINT64_MAX)
                                     ? UINT64_MAX
                                     : static_cast<uint64_t>(Budget);
    }
  }
  if (O.UseEvalCache) {
    if (!O.CacheDir.empty()) {
      Span S(T, "search.cache_preload");
      search::PersistentCacheOptions PCOpts;
      PCOpts.Dir = O.CacheDir;
      PCOpts.ReadOnly = O.CacheReadOnly;
      Prep->DiskCache = std::make_unique<search::PersistentEvalCache>(PCOpts);
      Prep->Cache = Prep->DiskCache.get();
    } else {
      Prep->Cache = &Prep->MemCache;
    }
  }
  return Prep;
}

/// The Orchestrator's variant objective with a span around every layer call:
/// clone, materialize, print + key + lookup, prepare, run, checksum,
/// insert. Same decisions, in the same order, as the untraced objective.
class TimedObjective : public search::BatchObjective {
public:
  TimedObjective(const SearchInput &In, const TracedPrep &Prep, Tracer &T,
                 std::atomic<int64_t> *LastClaimNs = nullptr)
      : In(In), Prep(Prep), T(T), LastClaimNs(LastClaimNs) {}

  search::EvalOutcome assess(const search::Point &P) override {
    using search::EvalOutcome;
    using search::FailureKind;
    const driver::OrchestratorOptions &O = In.Opts;
    std::string Key = P.key();
    if (LastClaimNs) {
      if (int64_t Claim = LastClaimNs->exchange(0); Claim != 0)
        T.interval("service.claimed", Claim, Claim, Key);
    }
    Span Top(T, "objective", T.indexOf(Key), Key);

    std::unique_ptr<cir::Program> Variant =
        spanned(&T, "cir.clone", [&] { return In.Baseline->clone(); });
    lang::ExecOutcome Exec;
    {
      Span S(T, "locus.materialize");
      transform::TransformContext TCtx = makeContext(O, Variant.get(), true);
      lang::LocusInterpreter Interp(*Prep.Program, Prep.Registry);
      Exec = Interp.applyPoint(*Variant, P, TCtx);
    }
    T.count("transform.applied", Exec.TransformsApplied);
    if (!Exec.Ok || (Exec.InvalidPoint && Exec.IllegalTransform))
      T.count("transform.illegal", 1);
    if (!Exec.Ok)
      return EvalOutcome::fail(FailureKind::TransformIllegal, Exec.Error);
    if (Exec.InvalidPoint)
      return EvalOutcome::fail(Exec.IllegalTransform
                                   ? FailureKind::TransformIllegal
                                   : FailureKind::InvalidPoint,
                               Exec.InvalidReason);

    search::CacheKey VariantKey;
    if (Prep.Cache) {
      std::string Text = spanned(&T, "cir.print",
                                 [&] { return cir::printProgram(*Variant); });
      T.sample("cir.variant_bytes", static_cast<double>(Text.size()));
      std::optional<EvalOutcome> Hit = spanned(&T, "search.cache_lookup", [&] {
        VariantKey = search::makeCacheKey(Text);
        return Prep.Cache->lookup(VariantKey, Key);
      });
      T.count("search.cache_lookups", 1);
      if (Hit) {
        T.count("search.cache_hits", 1);
        return *Hit;
      }
    }

    T.noteEvaluated(P);
    EvalOutcome Out = evaluateVariant(*Variant);
    if (Prep.Cache && Out.Failure != FailureKind::MetricUnstable)
      spanned(&T, "search.cache_insert",
              [&] { Prep.Cache->insert(VariantKey, Key, Out); });
    return Out;
  }

private:
  search::EvalOutcome evaluateVariant(const cir::Program &Variant) {
    using search::EvalOutcome;
    using search::FailureKind;
    const driver::OrchestratorOptions &O = In.Opts;
    eval::EvalOptions EOpts = O.Eval;
    if (Prep.DeadlineIterations > 0)
      EOpts.MaxIterations =
          std::min(EOpts.MaxIterations, Prep.DeadlineIterations);
    bool PrepFailed = false;
    Expected<eval::RunResult> Run =
        timedEvaluate(T, Variant, EOpts, PrepFailed);
    if (PrepFailed)
      return EvalOutcome::fail(FailureKind::PrepareFailed, Run.message());
    if (!Run.ok()) {
      bool DeadlineHit =
          Run.message().find("iteration budget exceeded") != std::string::npos;
      return EvalOutcome::fail(DeadlineHit ? FailureKind::BudgetExceeded
                                           : FailureKind::RuntimeTrap,
                               Run.message());
    }
    if (!std::isfinite(Run->Cycles))
      return EvalOutcome::fail(FailureKind::MetricUnstable,
                               "non-finite cycle metric");
    if (!std::isnan(Prep.BaselineChecksum)) {
      double Tol =
          O.ChecksumRtol * std::max(1.0, std::abs(Prep.BaselineChecksum));
      if (std::isnan(Run->Checksum) ||
          std::abs(Run->Checksum - Prep.BaselineChecksum) > Tol)
        return EvalOutcome::fail(FailureKind::ChecksumMismatch,
                                 "checksum " + std::to_string(Run->Checksum) +
                                     " vs baseline " +
                                     std::to_string(Prep.BaselineChecksum));
    }
    return EvalOutcome::success(Run->Cycles);
  }

  const SearchInput &In;
  const TracedPrep &Prep;
  Tracer &T;
  std::atomic<int64_t> *LastClaimNs;
};

/// The coordinator-side round trip of one served point.
class TimedDistributed : public search::BatchObjective {
public:
  TimedDistributed(service::DistributedObjective &Dist, Tracer &T)
      : Dist(Dist), T(T) {}
  search::EvalOutcome assess(const search::Point &P) override {
    std::string Key = P.key();
    Span S(T, "service.task", T.indexOf(Key), Key);
    return Dist.assess(P);
  }

private:
  service::DistributedObjective &Dist;
  Tracer &T;
};

/// Materializes and runs each variant the evaluator ran during the round
/// again with cost accounting off: the interpreter-only share of eval.run.
void measureInterpretation(const SearchInput &In, const TracedPrep &Prep,
                           const std::vector<std::string> &Points,
                           const cir::Program *Best, Tracer &T) {
  eval::EvalOptions EOpts = In.Opts.Eval;
  EOpts.CountCost = false;
  auto run = [&](const cir::Program &P) {
    eval::ProgramEvaluator Eval(P, EOpts);
    if (!Eval.prepare().ok())
      return;
    int64_t Start = nowNs();
    (void)Eval.run();
    T.count("eval.interp_ns", static_cast<double>(nowNs() - Start));
  };
  run(*In.Baseline);
  for (const std::string &Text : Points) {
    auto P = search::deserializePoint(Text, Prep.Space);
    if (!P.ok())
      continue;
    std::unique_ptr<cir::Program> Variant = In.Baseline->clone();
    transform::TransformContext TCtx =
        makeContext(In.Opts, Variant.get(), true);
    lang::LocusInterpreter Interp(*Prep.Program, Prep.Registry);
    if (Interp.applyPoint(*Variant, *P, TCtx).Ok)
      run(*Variant);
  }
  if (Best)
    run(*Best);
}

/// Leases that lost first-writer-wins: every lease record after the first
/// for the same task epoch.
void countLostClaims(const std::string &QueueDir, Tracer &T) {
  auto Scan = support::RecordLog::scan(QueueDir + "/queue.rlog");
  if (!Scan.ok())
    return;
  std::map<std::pair<uint64_t, uint64_t>, int> Leases;
  double Lost = 0;
  for (const std::string &Payload : Scan->Records) {
    auto R = service::parseQueueRecord(Payload);
    if (R.ok() && R->K == service::QueueRecord::Kind::Lease &&
        Leases[{R->Id, R->Epoch}]++ > 0)
      ++Lost;
  }
  T.count("service.claims_lost", Lost);
}

void mergeWorkerTraces(const std::string &QueueDir, Tracer &T) {
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator(QueueDir, EC)) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("spans-", 0) != 0)
      continue;
    long Pid = std::atol(Name.c_str() + 6);
    T.merge(E.path().string(), Pid);
  }
}

/// Orchestrator::runSearch, recomposed from public calls with spans around
/// each layer. Produces the same SearchWorkflowResult fields the checks
/// compare.
Expected<driver::SearchWorkflowResult> tracedSearch(const SearchInput &In,
                                                    Tracer &T) {
  using Ret = Expected<driver::SearchWorkflowResult>;
  const driver::OrchestratorOptions &O = In.Opts;
  driver::SearchWorkflowResult Result;
  std::unique_ptr<TracedPrep> Prep;
  size_t EvaluatedBefore = T.Evaluated.size();
  T.beginSearch();
  {
    Span Root(T, "driver.tune");
    auto PrepOr = tracedPrepare(In, T);
    if (!PrepOr.ok())
      return Ret::error(PrepOr.message());
    Prep = std::move(*PrepOr);
    Result.Space = Prep->Space;
    Result.BaselineCycles = Prep->BaselineCycles;

    std::unique_ptr<search::Searcher> Searcher =
        search::makeSearcher(O.SearcherName);
    if (!Searcher)
      return Ret::error("unknown search module: " + O.SearcherName);

    TimedObjective Local(In, *Prep, T);
    std::unique_ptr<service::Coordinator> Coord;
    std::unique_ptr<service::DistributedObjective> Dist;
    std::unique_ptr<TimedDistributed> Served;
    bool ServeMode = !O.Serve.QueueDir.empty();
    if (ServeMode) {
      Span S(T, "service.start");
      service::CoordinatorOptions COpts = O.Serve;
      COpts.SpaceFingerprint = Result.Space.fingerprint();
      COpts.ConfigDigest = search::journalConfigDigest(O.SearcherName, O.Seed);
      auto C = service::Coordinator::start(std::move(COpts));
      if (!C.ok())
        return Ret::error(C.message());
      Coord = std::move(*C);
      Dist = std::make_unique<service::DistributedObjective>(*Coord, Local);
      Served = std::make_unique<TimedDistributed>(*Dist, T);
      Result.Served = true;
    }
    search::Objective &Inner =
        Served ? static_cast<search::Objective &>(*Served) : Local;
    search::GuardedObjective Guarded(Inner, O.Guard);
    search::SearchOptions SOpts;
    SOpts.MaxEvaluations = O.MaxEvaluations;
    SOpts.Seed = O.Seed;
    SOpts.Jobs = ServeMode ? std::max(1, std::max(O.Jobs, O.Serve.Workers))
                           : O.Jobs;

    std::optional<analysis::LegalityOracle> Oracle;
    if (O.StaticPrune) {
      Span S(T, "analysis.oracle_build");
      const lang::ModuleRegistry &Registry = Prep->Registry;
      analysis::ModuleInvoker Invoker =
          [&Registry, &O](const std::string &Module, const std::string &Member,
                          const std::map<std::string, analysis::PlanArg> &Args,
                          cir::Block &Region,
                          cir::Program &Prog) -> transform::TransformResult {
        const lang::ModuleMember *M = Registry.find(Module, Member);
        if (!M)
          return transform::TransformResult::error("unknown module member " +
                                                   Module + "." + Member);
        transform::TransformContext ReplayCtx = makeContext(O, &Prog, false);
        lang::ModuleArgs MArgs;
        for (const auto &[Key, Arg] : Args)
          MArgs[Key] = planArgToValue(Arg);
        lang::ModuleCallContext Ctx{&Region, &Prog, &ReplayCtx};
        return M->Fn(MArgs, Ctx).Result;
      };
      Oracle.emplace(*In.Baseline, Result.Space, std::move(Prep->Plan),
                     std::move(Invoker));
    }
    SOpts.StaticFilter = [&](const search::Point &P)
        -> std::optional<search::EvalOutcome> {
      std::string Key = P.key();
      Span S(T, "analysis.classify", T.assignIndex(Key), Key);
      if (!Oracle)
        return std::nullopt;
      return Oracle->classify(P);
    };

    search::SearchJournal Journal;
    if (!O.JournalPath.empty()) {
      Span S(T, "search.journal_open");
      search::JournalHeader Header;
      Header.SpaceFingerprint = Result.Space.fingerprint();
      Header.ConfigDigest =
          search::journalConfigDigest(O.SearcherName, O.Seed);
      auto J = search::SearchJournal::open(O.JournalPath, O.JournalSyncMode,
                                           Header);
      if (!J.ok())
        return Ret::error(J.message());
      Journal = std::move(*J);
      SOpts.OnFreshEval = [&](const search::EvalRecord &Rec) {
        Span A(T, "search.journal_append", T.indexOf(Rec.P.key()));
        (void)Journal.append(Rec);
      };
    }

    {
      Span S(T, "search");
      T.setAmbientParent(S.id());
      Result.Search = Searcher->search(Result.Space, Guarded, SOpts);
      T.setAmbientParent(-1);
    }
    Result.Guard = Guarded.stats();
    if (Oracle) {
      Result.Search.PrunedStaticByRange = Oracle->rangePrunedCount();
      T.count("analysis.pruned", Oracle->prunedCount());
      T.count("analysis.pruned_by_range", Oracle->rangePrunedCount());
    }
    if (Coord) {
      Span S(T, "service.shutdown");
      Coord->shutdown();
      Result.Service = Coord->stats();
    }
    if (Prep->Cache) {
      search::EvalCacheStats CStats = Prep->Cache->stats();
      Result.Search.CacheHits = CStats.Hits;
      Result.Search.CacheMisses = CStats.Misses;
      Result.Search.CacheDedupSaves = CStats.DedupSaves;
    }
    if (Prep->DiskCache) {
      search::PersistentCacheStats PStats = Prep->DiskCache->persistentStats();
      Result.Search.CacheLoadedPersistent = PStats.LoadedEntries;
      Result.Search.CachePersistedAppends = PStats.AppendedEntries;
      Result.Search.CacheWarnings = PStats.Warnings;
      Result.Search.CacheDegraded = PStats.Degraded;
    }

    if (!Result.Search.Found ||
        Result.Search.BestMetric >= Result.BaselineCycles) {
      Result.BaselineChosen = true;
      Result.BestProgram = In.Baseline->clone();
      Result.BestCycles = Result.BaselineCycles;
      Result.BestRun = *Prep->BaseRun;
      Result.Speedup = 1.0;
    } else {
      Span S(T, "driver.best_rerun");
      std::unique_ptr<cir::Program> Best =
          spanned(&T, "cir.clone", [&] { return In.Baseline->clone(); });
      lang::ExecOutcome Exec;
      {
        Span M(T, "locus.materialize");
        transform::TransformContext TCtx = makeContext(O, Best.get(), true);
        lang::LocusInterpreter Interp(*Prep->Program, Prep->Registry);
        Exec = Interp.applyPoint(*Best, Result.Search.Best, TCtx);
      }
      if (!Exec.Ok || Exec.InvalidPoint)
        return Ret::error("re-materializing the best variant failed");
      bool PrepFailed = false;
      Expected<eval::RunResult> Run =
          timedEvaluate(T, *Best, O.Eval, PrepFailed);
      if (!Run.ok())
        return Ret::error("best re-run failed: " + Run.message());
      Result.BestProgram = std::move(Best);
      Result.BestRun = *Run;
      Result.BestCycles = Run->Cycles;
      Result.Speedup = Result.BaselineCycles / Result.BestCycles;
    }
  }

  // Outside the timed pipeline: fold the workers' spans in and price the
  // interpreter alone on the variants this search evaluated.
  if (!O.Serve.QueueDir.empty()) {
    mergeWorkerTraces(O.Serve.QueueDir, T);
    countLostClaims(O.Serve.QueueDir, T);
  }
  std::vector<std::string> Mine(T.Evaluated.begin() +
                                    static_cast<long>(EvaluatedBefore),
                                T.Evaluated.end());
  measureInterpretation(In, *Prep, Mine,
                        Result.BaselineChosen ? nullptr
                                              : Result.BestProgram.get(),
                        T);
  return Result;
}

//===----------------------------------------------------------------------===//
// Serve-mode worker (re-exec'd by the coordinator)
//===----------------------------------------------------------------------===//

int runServeWorker(const std::string &QueueDir, const std::string &CacheDir,
                   bool Traced, const std::string &WorkerId) {
  int64_t EntryNs = nowNs();
  support::installShutdownFlag();
  auto Inputs = buildInputs(Workload::DgemmServe, 0, nullptr);
  if (!Inputs.ok()) {
    std::fprintf(stderr, "worker: %s\n", Inputs.message().c_str());
    return 1;
  }
  SearchInput &In = Inputs->front();
  In.Opts.CacheDir = CacheDir;
  service::WorkerOptions WOpts;
  WOpts.QueueDir = QueueDir;
  WOpts.WorkerId = WorkerId;
  WOpts.StopFlag = support::shutdownFlag();
  if (!Traced) {
    driver::Orchestrator Orch(*In.Locus, *In.Baseline, In.Opts);
    auto R = Orch.runWorker(WOpts);
    if (!R.ok()) {
      std::fprintf(stderr, "worker failed: %s\n", R.message().c_str());
      return 1;
    }
    return 0;
  }

  Tracer SetupTrace;
  auto Prep = tracedPrepare(In, SetupTrace);
  if (!Prep.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", Prep.message().c_str());
    return 1;
  }
  // Only per-task work is reported; the worker's own set-up shows as one
  // span from process entry to the first claim attempt.
  Tracer Tasks;
  if (!Tasks.streamTo(QueueDir + "/spans-" + std::to_string(::getpid()) +
                      ".tsv")) {
    std::fprintf(stderr, "worker: cannot write its span stream\n");
    return 1;
  }
  Tasks.interval("worker.ready", EntryNs, nowNs(), "");
  std::atomic<int64_t> LastClaimNs{0};
  TimedObjective Obj(In, **Prep, Tasks, &LastClaimNs);
  WOpts.SpaceFingerprint = (*Prep)->Space.fingerprint();
  WOpts.OnClaim = [&](uint64_t) { LastClaimNs = nowNs(); };
  auto R = service::runWorker((*Prep)->Space, Obj, WOpts);
  if (!R.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", R.message().c_str());
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Correctness checks
//===----------------------------------------------------------------------===//

bool sameMetric(double A, double B) {
  return A == B || (std::isnan(A) && std::isnan(B));
}

/// Bit-for-bit trajectory equality: the same points, metrics and failure
/// kinds in the same order, and the same best point and cycles.
bool sameTrajectory(const driver::SearchWorkflowResult &A,
                    const driver::SearchWorkflowResult &B, std::string &Why) {
  const auto &HA = A.Search.History, &HB = B.Search.History;
  if (HA.size() != HB.size()) {
    Why = "history length " + std::to_string(HA.size()) + " vs " +
          std::to_string(HB.size());
    return false;
  }
  for (size_t I = 0; I < HA.size(); ++I) {
    if (HA[I].P.key() != HB[I].P.key() || HA[I].Failure != HB[I].Failure ||
        !sameMetric(HA[I].Metric, HB[I].Metric)) {
      Why = "record " + std::to_string(I) + " differs";
      return false;
    }
  }
  if (A.Search.Best.key() != B.Search.Best.key() ||
      !sameMetric(A.BestCycles, B.BestCycles) ||
      A.BaselineChosen != B.BaselineChosen) {
    Why = "best point differs";
    return false;
  }
  return true;
}

struct Verdict {
  bool Correct = true;
  std::vector<std::string> Notes;
  void fail(const std::string &Msg) {
    Correct = false;
    Notes.push_back("FAIL " + Msg);
  }
};

std::string firstErrorLine(const std::string &Text) {
  std::istringstream Is(Text);
  std::string Line, First;
  while (std::getline(Is, Line)) {
    if (First.empty() && !Line.empty())
      First = Line;
    if (size_t At = Line.find("error:"); At != std::string::npos) {
      // Drop the temporary workdir from "<dir>/variant.c:L:C: error: ...".
      size_t File = Line.rfind('/', At);
      return File == std::string::npos ? Line : Line.substr(File + 1);
    }
  }
  return First;
}

/// Compiles the baseline and the best variant of every search with the
/// system compiler and cross-checks the three checksums.
void checkNative(
    const std::vector<SearchInput> &Inputs,
    const std::vector<std::optional<driver::SearchWorkflowResult>> &Results,
    Verdict &V) {
  eval::NativeOptions NOpts;
  if (!eval::nativeCompilerAvailable(NOpts.Compiler)) {
    V.fail("native reference: compiler '" + NOpts.Compiler +
           "' is not available");
    return;
  }
  // Searches of one workload share baselines and often best variants;
  // build each distinct program once.
  std::map<std::string, eval::NativeResult> Built;
  auto native = [&](const cir::Program &P) {
    std::string Text = cir::printProgram(P);
    auto It = Built.find(Text);
    if (It == Built.end())
      It = Built.emplace(Text, eval::evaluateNative(P, NOpts)).first;
    return It->second;
  };
  int Verified = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const SearchInput &In = Inputs[I];
    if (!Results[I])
      continue; // the failed search is already reported
    const driver::SearchWorkflowResult &R = *Results[I];
    eval::NativeResult Base = native(*In.Baseline);
    eval::NativeResult Best = native(*R.BestProgram);
    if (!Base.Ok || !Best.Ok) {
      const eval::NativeResult &Bad = Base.Ok ? Best : Base;
      std::string Msg = In.Label + ": " + firstErrorLine(Bad.Error);
      // Known: emitNativeC's harness locals `s` and `p` shadow bicg's
      // global arrays of the same names.
      if (In.Label.rfind("bicg#", 0) == 0)
        V.Notes.push_back("native-unverified " + Msg);
      else
        V.fail("native build/run " + Msg);
      continue;
    }
    double Tol = In.Opts.ChecksumRtol * std::max(1.0, std::abs(Base.Checksum));
    if (std::abs(Best.Checksum - Base.Checksum) > Tol)
      V.fail("native checksum " + In.Label + ": best " +
             std::to_string(Best.Checksum) + " vs baseline " +
             std::to_string(Base.Checksum));
    double SimTol =
        In.Opts.ChecksumRtol * std::max(1.0, std::abs(R.BestRun.Checksum));
    if (std::abs(Best.Checksum - R.BestRun.Checksum) > SimTol)
      V.fail("native vs simulator checksum " + In.Label + ": " +
             std::to_string(Best.Checksum) + " vs " +
             std::to_string(R.BestRun.Checksum));
    ++Verified;
  }
  V.Notes.push_back("native reference: " + std::to_string(Verified) + " of " +
                    std::to_string(Inputs.size()) +
                    " searches verified (baseline, best and simulator "
                    "checksums agree)");
}

//===----------------------------------------------------------------------===//
// Rounds
//===----------------------------------------------------------------------===//

/// Failures by the benchmark's definition: broken variants and service
/// faults. Illegal transforms, invalid points and deadline cuts describe the
/// space and are not failures.
int failures(const driver::SearchWorkflowResult &R) {
  using search::FailureKind;
  int N = R.Search.failures(FailureKind::RuntimeTrap) +
          R.Search.failures(FailureKind::PrepareFailed) +
          R.Search.failures(FailureKind::ChecksumMismatch) +
          R.Search.failures(FailureKind::MetricUnstable);
  return N + static_cast<int>(R.Service.LeaseExpiries +
                              R.Service.LocalFallbackEvals +
                              R.Service.QuarantinedTasks);
}

/// One timed search.
struct Run {
  std::optional<driver::SearchWorkflowResult> Result;
  double WallS = 0, CpuS = 0;
};

/// Runs one search untraced (Orchestrator::runSearch) or traced (the
/// recomposed pipeline).
Run runSearchOnce(const SearchInput &In, Tracer *T, Verdict &V) {
  Run X;
  double Cpu0 = cpuSeconds();
  int64_t T0 = nowNs();
  Expected<driver::SearchWorkflowResult> R =
      T ? tracedSearch(In, *T)
        : driver::Orchestrator(*In.Locus, *In.Baseline, In.Opts).runSearch();
  X.WallS = static_cast<double>(nowNs() - T0) * 1e-9;
  X.CpuS = cpuSeconds() - Cpu0;
  if (R.ok())
    X.Result = std::move(*R);
  else
    V.fail(In.Label + ": search failed: " + R.message());
  return X;
}

double geomeanSpeedup(
    const std::vector<std::optional<driver::SearchWorkflowResult>> &Rs) {
  double LogSum = 0;
  for (const auto &R : Rs)
    LogSum += R ? std::log(R->Speedup) : 0;
  return Rs.empty() ? 0 : std::exp(LogSum / static_cast<double>(Rs.size()));
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// The speed of a shared host's CPUs drifts by a third between phases that
/// outlast a run: the fastest repetition of a fixed loop moves between them
/// while staying within 1% inside one. CPU-bound times are therefore
/// reported at a reference speed. The probe is fixed code that does not
/// depend on the code under test: an 8-way LRU cache simulation over a
/// pseudo-random address stream, the kind of work the interpreter and
/// CacheSim do, then allocating and zeroing arrays the size of a large
/// cache's tags, as every run's CacheSim construction does. Its fastest
/// repetition, sampled between the timed searches, measures the host's
/// speed during the run.
class HostSpeed {
public:
  /// The probe's fastest time at the reference speed.
  static constexpr double ReferenceMs = 2.75;

  void sample(int Reps) {
    for (int I = 0; I < Reps; ++I) {
      int64_t T0 = nowNs();
      Sink = compute();
      int64_t T1 = nowNs();
      Sink = allocate();
      int64_t T2 = nowNs();
      ComputeMs.push_back(static_cast<double>(T1 - T0) / 1e6);
      AllocMs.push_back(static_cast<double>(T2 - T1) / 1e6);
    }
  }
  double computeMs() const { return minOf(ComputeMs); }
  double allocMs() const { return minOf(AllocMs); }
  double probeMs() const { return computeMs() + allocMs(); }
  size_t samples() const { return ComputeMs.size(); }
  /// Converts a CPU-bound time measured during the run to the reference
  /// speed.
  double scale() const { return ReferenceMs / probeMs(); }

private:
  static uint64_t compute() {
    constexpr int Sets = 512, Ways = 8;
    constexpr uint32_t Accesses = 150000;
    static uint64_t Tags[Sets][Ways];
    static uint32_t Age[Sets][Ways];
    std::memset(Tags, 0xff, sizeof(Tags));
    std::memset(Age, 0, sizeof(Age));
    uint64_t X = 12345, Hits = 0;
    for (uint32_t I = 1; I <= Accesses; ++I) {
      X = X * 6364136223846793005ull + 1442695040888963407ull;
      uint64_t Line = ((X >> 33) & ((1u << 21) - 1)) >> 6;
      uint64_t Set = Line % Sets, Tag = Line / Sets;
      int Victim = 0;
      bool Hit = false;
      for (int W = 0; W < Ways; ++W) {
        if (Tags[Set][W] == Tag) {
          Hit = true;
          Age[Set][W] = I;
          break;
        }
        if (Age[Set][W] < Age[Set][Victim])
          Victim = W;
      }
      if (Hit) {
        ++Hits;
      } else {
        Tags[Set][Victim] = Tag;
        Age[Set][Victim] = I;
      }
    }
    return Hits;
  }

  /// Allocates and zeroes tag and stamp arrays for a 25 MB cache.
  static uint64_t allocate() {
    constexpr size_t Lines = 25 * 1024 * 1024 / 64;
    std::vector<uint64_t> Tags, Stamps;
    Tags.assign(Lines, 0);
    Stamps.assign(Lines, 0);
    return Tags[Lines / 2] + Stamps[Lines / 3];
  }

  std::vector<double> ComputeMs, AllocMs;
  volatile uint64_t Sink = 0;
};

//===----------------------------------------------------------------------===//
// Per-layer metrics from the spans
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

using Interval = std::pair<int64_t, int64_t>;

/// Length of the union of \p Iv: time covered by at least one interval.
int64_t unionNs(std::vector<Interval> Iv) {
  std::sort(Iv.begin(), Iv.end());
  int64_t Covered = 0, Reach = INT64_MIN;
  for (auto [Lo, Hi] : Iv) {
    Lo = std::max(Lo, Reach);
    if (Hi > Lo) {
      Covered += Hi - Lo;
      Reach = Hi;
    }
  }
  return Covered;
}

class LayerView {
public:
  explicit LayerView(const Tracer &T) : T(T) {
    for (const SpanRec &S : T.Spans)
      ByName[S.Name].push_back(&S);
  }

  std::vector<double> durations(const std::string &Name, double Scale) const {
    std::vector<double> Out;
    auto It = ByName.find(Name);
    if (It != ByName.end())
      for (const SpanRec *S : It->second)
        Out.push_back(static_cast<double>(S->End - S->Start) / Scale);
    return Out;
  }
  double totalMs(const std::string &Name) const {
    return sum(durations(Name, 1e6));
  }
  double counter(const std::string &Name) const {
    auto It = T.Counters.find(Name);
    return It == T.Counters.end() ? 0 : It->second;
  }
  const std::vector<const SpanRec *> &spans(const std::string &Name) const {
    static const std::vector<const SpanRec *> None;
    auto It = ByName.find(Name);
    return It == ByName.end() ? None : It->second;
  }

  /// Duration of \p S minus the part of its interval its children cover.
  double selfMs(const SpanRec &S) const {
    std::vector<Interval> Kids;
    for (const SpanRec &C : T.Spans)
      if (C.Parent == S.Id && C.Pid == S.Pid)
        Kids.emplace_back(std::max(C.Start, S.Start), std::min(C.End, S.End));
    return static_cast<double>(S.End - S.Start - unionNs(std::move(Kids))) /
           1e6;
  }

private:
  const Tracer &T;
  std::map<std::string, std::vector<const SpanRec *>> ByName;
};

std::vector<Metric>
layerMetrics(const Tracer &T,
             const std::vector<driver::SearchWorkflowResult> &Traced,
             double TracedTuneS, double UntracedTuneS, double CacheSimInitUs) {
  LayerView L(T);
  std::vector<Metric> M;
  auto add = [&](const char *Name, double V, const char *Unit) {
    M.push_back({Name, V, Unit});
  };
  double TuneMs = 0, UnattributedMs = 0;
  for (const SpanRec *S : L.spans("driver.tune")) {
    TuneMs += static_cast<double>(S->End - S->Start) / 1e6;
    UnattributedMs += L.selfMs(*S);
  }
  double SearchSelfMs = 0;
  for (const SpanRec *S : L.spans("search"))
    SearchSelfMs += L.selfMs(*S);

  int Proposals = 0, Evaluations = 0, Duplicates = 0;
  service::ServiceStats SS;
  for (const driver::SearchWorkflowResult &R : Traced) {
    Evaluations += R.Search.Evaluations;
    Duplicates += R.Search.DuplicateHits;
    SS.WorkerResults += R.Service.WorkerResults;
    SS.LeaseExpiries += R.Service.LeaseExpiries;
    SS.LocalFallbackEvals += R.Service.LocalFallbackEvals;
    SS.StaleResultsDiscarded += R.Service.StaleResultsDiscarded;
  }
  Proposals = Evaluations + Duplicates;

  // Served points: round trip on the coordinator vs objective time in the
  // worker, matched by search and point key.
  using PointOf = std::pair<int, std::string>;
  std::map<PointOf, const SpanRec *> WorkerObjective, Claimed;
  std::map<int, int64_t> CoordStart;
  long Self = static_cast<long>(::getpid());
  for (const SpanRec *S : L.spans("objective"))
    if (S->Pid != Self)
      WorkerObjective[{S->Search, S->Key}] = S;
  for (const SpanRec *S : L.spans("service.claimed"))
    Claimed[{S->Search, S->Key}] = S;
  for (const SpanRec *S : L.spans("service.start"))
    CoordStart[S->Search] = S->Start;
  std::vector<double> TaskMs, WaitMs, ClaimWaitMs, SpawnMs;
  // The served tasks run concurrently (one per worker), so the wait share
  // is the time at least one task was waiting, not the sum of the waits.
  std::vector<Interval> Waiting;
  for (const SpanRec *S : L.spans("worker.ready"))
    SpawnMs.push_back(static_cast<double>(S->End - CoordStart[S->Search]) /
                      1e6);
  for (const SpanRec *S : L.spans("service.task")) {
    double Task = static_cast<double>(S->End - S->Start) / 1e6;
    TaskMs.push_back(Task);
    auto W = WorkerObjective.find({S->Search, S->Key});
    if (W == WorkerObjective.end()) {
      WaitMs.push_back(Task);
      Waiting.emplace_back(S->Start, S->End);
    } else {
      const SpanRec &Obj = *W->second;
      WaitMs.push_back(Task - static_cast<double>(Obj.End - Obj.Start) / 1e6);
      Waiting.emplace_back(S->Start, Obj.Start);
      Waiting.emplace_back(Obj.End, S->End);
    }
    auto C = Claimed.find({S->Search, S->Key});
    if (C != Claimed.end())
      ClaimWaitMs.push_back(static_cast<double>(C->second->Start - S->Start) /
                            1e6);
  }

  double RunMs = L.totalMs("eval.run");
  double InterpMs = L.counter("eval.interp_ns") / 1e6;
  double Iters = L.counter("eval.iterations");
  double Classified = static_cast<double>(L.spans("analysis.classify").size());
  std::vector<double> Bytes;
  if (auto It = T.Samples.find("cir.variant_bytes"); It != T.Samples.end())
    Bytes = It->second;

  add("cir.parse_ms", L.totalMs("cir.parse"), "ms");
  add("cir.clone_us", median(L.durations("cir.clone", 1e3)), "us");
  add("cir.print_us", median(L.durations("cir.print", 1e3)), "us");
  add("cir.variant_bytes", median(Bytes), "bytes");
  add("locus.parse_ms", L.totalMs("locus.parse"), "ms");
  add("locus.optimize_ms", L.totalMs("locus.optimize"), "ms");
  add("locus.extract_ms", L.totalMs("locus.extract"), "ms");
  std::vector<double> Mat = L.durations("locus.materialize", 1e3);
  add("locus.materialize_us.p50", percentile(Mat, 0.5), "us");
  add("locus.materialize_us.p99", percentile(Mat, 0.99), "us");
  add("locus.materializations", static_cast<double>(Mat.size()), "count");
  add("transform.applied", L.counter("transform.applied"), "count");
  add("transform.illegal", L.counter("transform.illegal"), "count");
  add("analysis.discover_ms", L.totalMs("analysis.discover"), "ms");
  add("analysis.oracle_build_ms", L.totalMs("analysis.oracle_build"), "ms");
  std::vector<double> Cls = L.durations("analysis.classify", 1e3);
  add("analysis.classify_us.p50", percentile(Cls, 0.5), "us");
  add("analysis.classify_us.p99", percentile(Cls, 0.99), "us");
  add("analysis.pruned", L.counter("analysis.pruned"), "count");
  add("analysis.pruned_by_range", L.counter("analysis.pruned_by_range"),
      "count");
  add("analysis.prune_ratio",
      Classified > 0 ? L.counter("analysis.pruned") / Classified : 0, "ratio");
  add("search.self_ms", SearchSelfMs, "ms");
  add("search.proposals", Proposals, "count");
  add("search.evaluations", Evaluations, "count");
  add("search.duplicate_hits", Duplicates, "count");
  double Lookups = L.counter("search.cache_lookups");
  add("search.cache_hit_ratio",
      Lookups > 0 ? L.counter("search.cache_hits") / Lookups : 0, "ratio");
  add("search.cache_lookup_us", median(L.durations("search.cache_lookup", 1e3)),
      "us");
  add("search.cache_preload_ms", L.totalMs("search.cache_preload"), "ms");
  add("search.cache_insert_us", median(L.durations("search.cache_insert", 1e3)),
      "us");
  std::vector<double> Jrn = L.durations("search.journal_append", 1e3);
  add("search.journal_append_us.p50", percentile(Jrn, 0.5), "us");
  add("search.journal_append_us.p99", percentile(Jrn, 0.99), "us");
  add("search.journal_appends", static_cast<double>(Jrn.size()), "count");
  add("eval.prepare_us", median(L.durations("eval.prepare", 1e3)), "us");
  std::vector<double> Runs = L.durations("eval.run", 1e6);
  add("eval.run_ms.p50", percentile(Runs, 0.5), "ms");
  add("eval.run_ms.p99", percentile(Runs, 0.99), "ms");
  add("eval.runs", L.counter("eval.runs"), "count");
  add("eval.iterations", Iters, "count");
  add("eval.mem_accesses", L.counter("eval.mem_accesses"), "count");
  add("eval.ns_per_iter", Iters > 0 ? RunMs * 1e6 / Iters : 0, "ns");
  add("eval.interp_ms", InterpMs, "ms");
  add("machine.cost_ms", RunMs - InterpMs, "ms");
  add("machine.cachesim_init_us", CacheSimInitUs, "us");
  double L1 = L.counter("machine.l1_accesses");
  add("machine.l1_hit_ratio", L1 > 0 ? L.counter("machine.l1_hits") / L1 : 0,
      "ratio");
  add("machine.llc_misses", L.counter("machine.llc_misses"), "count");
  add("driver.baseline_ms", L.totalMs("driver.baseline"), "ms");
  add("driver.best_rerun_ms", L.totalMs("driver.best_rerun"), "ms");
  add("driver.unattributed_ms", UnattributedMs, "ms");
  add("service.task_ms.p50", percentile(TaskMs, 0.5), "ms");
  add("service.task_ms.p99", percentile(TaskMs, 0.99), "ms");
  add("service.wait_ms.p50", percentile(WaitMs, 0.5), "ms");
  add("service.wait_ms.p99", percentile(WaitMs, 0.99), "ms");
  add("service.claim_wait_ms", median(ClaimWaitMs), "ms");
  add("service.spawn_ms", median(SpawnMs), "ms");
  add("service.worker_results", static_cast<double>(SS.WorkerResults),
      "count");
  add("service.lease_expiries", static_cast<double>(SS.LeaseExpiries),
      "count");
  add("service.local_fallback", static_cast<double>(SS.LocalFallbackEvals),
      "count");
  add("service.stale_discarded",
      static_cast<double>(SS.StaleResultsDiscarded), "count");
  add("service.claims_lost", L.counter("service.claims_lost"), "count");
  add("trace.tune_ms", TuneMs, "ms");
  add("trace.overhead", UntracedTuneS > 0 ? TracedTuneS / UntracedTuneS : 0,
      "ratio");
  double EvalMs = L.totalMs("eval.prepare") + RunMs;
  add("trace.eval_share", TuneMs > 0 ? EvalMs / TuneMs : 0, "ratio");
  add("trace.wait_share",
      TuneMs > 0 ? static_cast<double>(unionNs(std::move(Waiting))) / 1e6 /
                       TuneMs
                 : 0,
      "ratio");
  return M;
}

/// Median construction time of the workload's cache hierarchy (the fixed
/// cost every ProgramEvaluator::run pays).
double cacheSimInitUs(const machine::MachineConfig &Machine) {
  std::vector<double> Us;
  for (int I = 0; I < 15; ++I) {
    int64_t Start = nowNs();
    machine::CacheSim Sim(Machine);
    (void)Sim.access(0, false);
    Us.push_back(static_cast<double>(nowNs() - Start) / 1e3);
  }
  return median(Us);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceFile;
};

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload NAME --seed S [--seconds T] "
               "[--trace 0|1] [--trace-file FILE]\n"
               "workloads: dgemm_fig7 polybench_discover dgemm_serve\n");
  return 2;
}

void printJson(const Verdict &V, int Attempted, int Failed,
               const std::vector<Metric> &Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              V.Correct ? "true" : "false", std::max(1, Attempted), Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
  std::printf("}}\n");
}

int runBenchmark(const Args &A) {
  const WorkloadInfo *Info = nullptr;
  for (const WorkloadInfo &W : Workloads)
    if (A.Workload == W.Name)
      Info = &W;
  if (!Info)
    return usage();

  std::printf("host nproc=%ld compiler=\"%s\" optimized=%s sanitizer=%s\n",
              ::sysconf(_SC_NPROCESSORS_ONLN),
#ifdef __clang__
              "clang " __clang_version__,
#else
              "gcc " __VERSION__,
#endif
              OptimizedBuild ? "yes" : "no", SanitizerBuild ? "yes" : "no");
  if (SanitizerBuild) {
    std::fprintf(stderr, "refusing to report timings from a sanitizer "
                         "build; rebuild without -fsanitize\n");
    return 2;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", Info->Name,
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  std::fflush(stdout);

  // Set-up is timed in rounds spread through the run (five here, one after
  // each timed search) and the median round reported, so a burst of
  // interference at start-up cannot decide it. A round is the fastest of
  // three back-to-back set-ups: one preemption inside a sub-millisecond
  // set-up would otherwise double it.
  std::vector<double> SetupS;
  auto timeSetup = [&]() {
    std::optional<Expected<std::vector<SearchInput>>> In;
    double Fastest = 0;
    for (int I = 0; I < 3; ++I) {
      In.reset();
      int64_t T0 = nowNs();
      In.emplace(buildInputs(Info->W, A.Seed, nullptr));
      double S = static_cast<double>(nowNs() - T0) * 1e-9;
      Fastest = I == 0 ? S : std::min(Fastest, S);
    }
    SetupS.push_back(Fastest);
    return std::move(*In);
  };
  auto Built = timeSetup();
  if (!Built.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", Built.message().c_str());
    return 1;
  }
  std::vector<SearchInput> Inputs = std::move(*Built);
  for (int I = 0; I < 4; ++I)
    (void)timeSetup();

  // Hermetic state: one temp dir per process, removed on exit.
  support::TempDir Scratch("locus-pipeline-bench-");
  if (!Scratch.valid()) {
    std::fprintf(stderr, "cannot create a temp dir under $TMPDIR\n");
    return 1;
  }

  Verdict V;
  const size_t N = Inputs.size();
  // The trajectory every run of a search must reproduce. dgemm_serve gets
  // it from an untimed local --jobs 1 run; elsewhere the first run sets it.
  std::vector<std::optional<driver::SearchWorkflowResult>> Reference(N);
  if (Info->W == Workload::DgemmServe) {
    for (size_t I = 0; I < N; ++I) {
      SearchInput Local = Inputs[I];
      Local.Opts = localOptions(Local.Opts);
      Reference[I] = std::move(runSearchOnce(Local, nullptr, V).Result);
    }
    if (!V.Correct) {
      for (const std::string &Note : V.Notes)
        std::fprintf(stderr, "%s\n", Note.c_str());
      return 1;
    }
  }

  int Attempted = 0, Failed = 0, RunNo = 0;
  auto runChecked = [&](size_t I, Tracer *T) {
    std::optional<support::TempDir> Dir;
    if (Info->W == Workload::DgemmServe) {
      Dir.emplace("run-" + std::to_string(RunNo) + "-", Scratch.path());
      configureServe(Inputs[I], Dir->path(), T != nullptr);
    }
    ++RunNo;
    Run X = runSearchOnce(Inputs[I], T, V);
    if (!X.Result) {
      ++Attempted;
      ++Failed;
      return X;
    }
    const driver::SearchWorkflowResult &R = *X.Result;
    Attempted += R.Search.Evaluations;
    Failed += failures(R);
    if (!Reference[I]) {
      Reference[I] = std::move(X.Result);
      X.Result.reset();
      return X;
    }
    std::string Why;
    if (!sameTrajectory(*Reference[I], R, Why))
      V.fail(std::string(T ? "traced run diverged from the untraced one on "
                           : "run diverged from the reference on ") +
             Inputs[I].Label + ": " + Why);
    return X;
  };

  std::vector<Metric> Out;
  int64_t Deadline = nowNs() + static_cast<int64_t>(A.Seconds * 1e9);
  if (!A.Trace) {
    HostSpeed Speed;
    Speed.sample(20);
    // Searches run round-robin until the time is up (at least twice each).
    // The host's CPUs are shared, and interference only ever slows a run
    // down, so each search's time is its fastest repetition.
    std::vector<std::vector<double>> Wall(N), Cpu(N);
    size_t Runs = 0;
    for (; Runs < 2 * N || nowNs() < Deadline; ++Runs) {
      Run X = runChecked(Runs % N, nullptr);
      Wall[Runs % N].push_back(X.WallS);
      Cpu[Runs % N].push_back(X.CpuS);
      (void)timeSetup();
      Speed.sample(3);
    }
    double TuneS = 0, CpuS = 0, MedianTuneS = 0;
    for (size_t I = 0; I < N && Reference[I]; ++I) {
      TuneS += minOf(Wall[I]);
      CpuS += minOf(Cpu[I]);
      MedianTuneS += median(Wall[I]);
      std::printf("search %s seed %llu: %.6g s (median %.6g s), %d "
                  "assessed, %llu simulated, speedup %.4g\n",
                  Inputs[I].Label.c_str(),
                  static_cast<unsigned long long>(Inputs[I].Opts.Seed),
                  minOf(Wall[I]), median(Wall[I]),
                  Reference[I]->Search.Evaluations,
                  static_cast<unsigned long long>(
                      Reference[I]->Search.CacheMisses),
                  Reference[I]->Speedup);
    }
    rusage U{};
    getrusage(RUSAGE_SELF, &U);
    // Only searches that run in this process are CPU-bound. dgemm_serve
    // waits on the service's fixed poll sleeps, and its CPU time is mostly
    // worker start-up and polling; neither tracked the probe. Nor did the
    // sub-millisecond set-up, which stays as measured.
    double Scale = Info->W == Workload::DgemmServe ? 1.0 : Speed.scale();
    Out = {{"tune_s", TuneS * Scale, "s"},
           {"setup_s", median(SetupS), "s"},
           {"cpu_s", CpuS * Scale, "s"},
           {"best_speedup", geomeanSpeedup(Reference), "x"},
           {"peak_rss_mb", static_cast<double>(U.ru_maxrss) / 1024.0, "MB"}};
    std::printf("searches %zu, runs %zu (tune_s from medians %.6g), "
                "set-up rounds %zu\n",
                N, Runs, MedianTuneS, SetupS.size());
    std::printf("host probe %.6g ms (compute %.6g, allocate %.6g) over %zu "
                "samples: times scaled by %.6g (measured tune_s %.6g, setup_s "
                "%.6g, cpu_s %.6g)\n",
                Speed.probeMs(), Speed.computeMs(), Speed.allocMs(),
                Speed.samples(), Scale, TuneS, median(SetupS), CpuS);
    std::printf("failed_frac %.6g\n",
                static_cast<double>(Failed) / std::max(1, Attempted));
  } else {
    // Alternate untraced and traced rounds over all searches; the
    // per-layer table comes from the last traced round, whose set-up is
    // traced too.
    std::vector<double> PlainS, TracedS;
    std::unique_ptr<Tracer> T;
    std::vector<driver::SearchWorkflowResult> Traced;
    while (TracedS.size() < 2 || nowNs() < Deadline) {
      double Plain = 0;
      for (size_t I = 0; I < N; ++I)
        Plain += runChecked(I, nullptr).WallS;
      PlainS.push_back(Plain);
      T = std::make_unique<Tracer>();
      if (!buildInputs(Info->W, A.Seed, T.get()).ok())
        V.fail("traced set-up failed");
      Traced.clear();
      for (size_t I = 0; I < N; ++I)
        if (Run X = runChecked(I, T.get()); X.Result)
          Traced.push_back(std::move(*X.Result));
      // The pipeline alone: the round also re-runs variants uncosted and
      // folds worker spans, outside the driver.tune spans.
      double TunedNs = 0;
      for (const SpanRec &S : T->Spans)
        if (S.Name == "driver.tune")
          TunedNs += static_cast<double>(S.End - S.Start);
      TracedS.push_back(TunedNs * 1e-9);
    }
    Out = layerMetrics(*T, Traced, minOf(TracedS), minOf(PlainS),
                       cacheSimInitUs(Inputs.front().Opts.Eval.Machine));
    if (!A.TraceFile.empty())
      T->writeChromeTrace(A.TraceFile);

    std::map<std::string, double> ByName;
    for (const Metric &M : Out)
      ByName[M.Name] = M.Value;
    // Time outside every layer span means a layer call went unspanned, and
    // the table no longer describes the pipeline.
    double Tune = ByName["trace.tune_ms"];
    if (!(ByName["driver.unattributed_ms"] < 0.1 * Tune))
      V.fail("driver.unattributed_ms " +
             std::to_string(ByName["driver.unattributed_ms"]) +
             " ms is not under 10% of the traced tune time " +
             std::to_string(Tune) + " ms");
    // The purpose shares say which layer dominates the workload today. A
    // change that speeds that layer up lowers its share without making any
    // output wrong, so a miss is reported and does not fail the run.
    auto purpose = [&](const char *What, bool Met) {
      V.Notes.push_back(std::string("purpose ") + What + ": " +
                        (Met ? "met" : "NOT met"));
    };
    if (Info->W == Workload::DgemmFig7)
      purpose("eval + machine >= 75% of traced time",
              ByName["trace.eval_share"] >= 0.75);
    if (Info->W == Workload::DgemmServe)
      purpose("service tasks waiting >= 75% of traced time",
              ByName["trace.wait_share"] >= 0.75);
    std::printf("%-32s %16s %s\n", "layer metric", "value", "unit");
    for (const Metric &M : Out)
      std::printf("%-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
  }

  // Outside every timed region: the independent native reference.
  checkNative(Inputs, Reference, V);
  for (const std::string &Note : V.Notes)
    std::printf("%s\n", Note.c_str());
  if (!A.Trace)
    for (const Metric &M : Out)
      std::printf("%s %.10g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  printJson(V, Attempted, Failed, Out);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // glibc raises its mmap threshold to the size of the last large block
  // freed and trims the heap once its free top passes twice that. A
  // CacheSim's two 2.6 MB L3 arrays sit right at that edge, so whether each
  // ProgramEvaluator::run faults in fresh pages or reuses the heap depended
  // on heap layout, and polybench_discover's time varied 2x between
  // processes. Fixed thresholds give every run the reuse steady state.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  // The coordinator appends `--worker-id ID` to the worker's argv.
  if (argc >= 5 && std::strcmp(argv[1], "--serve-worker") == 0)
    return runServeWorker(argv[2], argv[3], std::strcmp(argv[4], "1") == 0,
                          argc >= 7 ? argv[6] : "worker");
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    std::string Val = argv[++I];
    if (Arg == "--workload")
      A.Workload = Val;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::atof(Val.c_str());
    else if (Arg == "--trace")
      A.Trace = Val == "1";
    else if (Arg == "--trace-file")
      A.TraceFile = Val;
    else
      return usage();
  }
  return runBenchmark(A);
}
