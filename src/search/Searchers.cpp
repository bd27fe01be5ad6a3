//===- Searchers.cpp - Built-in search modules --------------------------------===//

#include "src/search/Search.h"

#include "src/search/EvalPool.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>

namespace locus {
namespace search {

const char *failureKindName(FailureKind K) {
  switch (K) {
  case FailureKind::None:
    return "None";
  case FailureKind::TransformIllegal:
    return "TransformIllegal";
  case FailureKind::InvalidPoint:
    return "InvalidPoint";
  case FailureKind::PrepareFailed:
    return "PrepareFailed";
  case FailureKind::RuntimeTrap:
    return "RuntimeTrap";
  case FailureKind::BudgetExceeded:
    return "BudgetExceeded";
  case FailureKind::ChecksumMismatch:
    return "ChecksumMismatch";
  case FailureKind::MetricUnstable:
    return "MetricUnstable";
  }
  return "None";
}

FailureKind parseFailureKind(std::string_view Name, bool &Ok) {
  Ok = true;
  for (int I = 0; I < NumFailureKinds; ++I) {
    FailureKind K = static_cast<FailureKind>(I);
    if (Name == failureKindName(K))
      return K;
  }
  Ok = false;
  return FailureKind::None;
}

namespace {

//===----------------------------------------------------------------------===//
// Value enumeration / sampling
//===----------------------------------------------------------------------===//

std::vector<int64_t> pow2Values(int64_t Min, int64_t Max) {
  std::vector<int64_t> Values;
  int64_t V = 1;
  while (V < Min)
    V <<= 1;
  for (; V <= Max; V <<= 1)
    Values.push_back(V);
  if (Values.empty())
    Values.push_back(std::max<int64_t>(1, Min));
  return Values;
}

std::vector<int64_t> logIntValues(int64_t Min, int64_t Max) {
  // Geometric grid with ratio ~1.5, deduplicated.
  std::vector<int64_t> Values;
  double V = static_cast<double>(std::max<int64_t>(1, Min));
  while (static_cast<int64_t>(V) <= Max) {
    int64_t I = static_cast<int64_t>(V);
    if (Values.empty() || Values.back() != I)
      Values.push_back(I);
    V *= 1.5;
    if (V < static_cast<double>(Values.back()) + 1)
      V = static_cast<double>(Values.back()) + 1;
  }
  if (Values.empty())
    Values.push_back(Min);
  return Values;
}

} // namespace

std::vector<PointValue> enumerateValues(const ParamDef &P) {
  std::vector<PointValue> Out;
  switch (P.Kind) {
  case ParamKind::Enum:
    for (size_t I = 0; I < std::max<size_t>(1, P.Options.size()); ++I)
      Out.push_back(static_cast<int64_t>(I));
    return Out;
  case ParamKind::Bool:
    Out.push_back(static_cast<int64_t>(0));
    Out.push_back(static_cast<int64_t>(1));
    return Out;
  case ParamKind::IntRange:
    for (int64_t V = P.Min; V <= P.Max; ++V)
      Out.push_back(V);
    if (Out.empty())
      Out.push_back(P.Min);
    return Out;
  case ParamKind::Pow2:
    for (int64_t V : pow2Values(P.Min, P.Max))
      Out.push_back(V);
    return Out;
  case ParamKind::LogInt:
    for (int64_t V : logIntValues(P.Min, P.Max))
      Out.push_back(V);
    return Out;
  case ParamKind::FloatRange:
  case ParamKind::LogFloat: {
    const int Steps = 16;
    for (int I = 0; I < Steps; ++I) {
      double T = static_cast<double>(I) / (Steps - 1);
      if (P.Kind == ParamKind::LogFloat && P.FMin > 0) {
        Out.push_back(P.FMin * std::pow(P.FMax / P.FMin, T));
      } else {
        Out.push_back(P.FMin + T * (P.FMax - P.FMin));
      }
    }
    return Out;
  }
  case ParamKind::Permutation: {
    // Enumerate permutations lexicographically (callers cap the count).
    std::vector<int> Perm(static_cast<size_t>(P.PermSize));
    for (int I = 0; I < P.PermSize; ++I)
      Perm[static_cast<size_t>(I)] = I;
    do {
      Out.push_back(Perm);
    } while (std::next_permutation(Perm.begin(), Perm.end()) &&
             Out.size() < 5041);
    return Out;
  }
  }
  return Out;
}

PointValue sampleValue(const ParamDef &P, Rng &R) {
  if (P.Kind == ParamKind::Permutation) {
    std::vector<int> Perm(static_cast<size_t>(P.PermSize));
    for (int I = 0; I < P.PermSize; ++I)
      Perm[static_cast<size_t>(I)] = I;
    R.shuffle(Perm);
    return Perm;
  }
  if (P.Kind == ParamKind::FloatRange)
    return P.FMin + R.uniform() * (P.FMax - P.FMin);
  if (P.Kind == ParamKind::LogFloat && P.FMin > 0)
    return P.FMin * std::pow(P.FMax / P.FMin, R.uniform());
  std::vector<PointValue> Values = enumerateValues(P);
  return Values[R.index(Values.size())];
}

Point samplePoint(const Space &S, Rng &R) {
  Point P;
  for (const ParamDef &Def : S.Params)
    P.Values[Def.Id] = sampleValue(Def, R);
  return P;
}

namespace {

//===----------------------------------------------------------------------===//
// Shared evaluation driver: deduplication, replay, static pruning, projection
// reuse, and the parallel evaluation pool
//===----------------------------------------------------------------------===//

/// Fixed speculative batch width for searchers whose proposal stream does
/// not depend on pending outcomes (exhaustive, random, and DE inside one
/// generation). Deliberately independent of SearchOptions::Jobs: the batch
/// boundaries (and therefore the stale/budget bookkeeping) must not move
/// with the worker count, or trajectories would differ between Jobs
/// settings. The pool simply splits whatever batch it is handed across its
/// workers.
constexpr size_t SpeculativeBatch = 8;

/// Per-point result of a batch evaluation, in proposal order.
struct BatchItem {
  double Metric = std::numeric_limits<double>::infinity();
  bool Valid = false;
  /// A (fresh, replayed, pruned or projection-served) evaluation happened
  /// for this proposal; false for duplicates served from the memo and for
  /// proposals dropped at the budget boundary.
  bool Fresh = false;
  /// The proposal produced a usable outcome (evaluated or served from the
  /// memo); false only for budget-dropped tail entries.
  bool Assessed = false;
};

class EvalDriver {
public:
  EvalDriver(const Space &S, Objective &Obj, const SearchOptions &Opts,
             SearchResult &Result)
      : Sp(S), Obj(Obj), Opts(Opts), Result(Result),
        Pool(Obj.concurrencySafe() ? Opts.Jobs : 1) {
    for (const EvalRecord &R : Opts.Replay)
      ReplayCache.emplace(R.P.key(), R);
    Result.PoolJobs = Pool.jobs();
  }

  bool budgetLeft() const {
    // Cooperative shutdown reads as budget exhaustion: every searcher loop
    // already terminates cleanly on a spent budget, so one check here stops
    // all of them between iterations with the journal intact.
    if (Opts.StopFlag && Opts.StopFlag->load(std::memory_order_relaxed)) {
      Result.Stopped = true;
      return false;
    }
    return Result.Evaluations < Opts.MaxEvaluations;
  }

  /// Evaluates a batch of proposals. Each is classified, in proposal order
  /// on the search thread, as the first of these that applies:
  ///
  ///   1. an exact duplicate (of an earlier evaluation or an earlier entry
  ///      of the batch): served from the memo, no budget;
  ///   2. past the evaluation budget: dropped (Assessed = false);
  ///   3. journal-replayed: consumes its recorded outcome;
  ///   4. statically pruned: consumes the StaticFilter's proven failure;
  ///   5. a repeat of an active projection (Point::activeKey) that the
  ///      objective or the journal already assessed, or that a pending
  ///      proposal of this batch carries: served that outcome, without
  ///      calling the objective;
  ///   6. pending: assessed by the objective, in parallel across the pool.
  ///
  /// A point reads only the parameters of the arms it selects, so two
  /// points with one projection materialize one variant: the outcome of
  /// the first serves the rest. A MetricUnstable outcome serves nothing;
  /// a repeat of a pending proposal that came back unstable is assessed
  /// itself, in a second pool pass. Every proposal that got an outcome
  /// (3-6) commits the same way, in proposal order: History, journal,
  /// best point, budget. So the searcher (and the journal) observe exactly
  /// the serial trajectory, whatever the pool width or the objective.
  std::vector<BatchItem> evaluateBatch(const std::vector<Point> &Batch) {
    std::vector<Slot> Slots(Batch.size());
    std::vector<size_t> Pending;
    std::set<std::string> BatchKeys;
    std::map<std::string, size_t> BatchLeaders;
    int BudgetUsed = 0;

    // Classification pass (replay consumption and StaticFilter calls keep
    // their serial order).
    for (size_t I = 0; I < Batch.size(); ++I) {
      Slot &S = Slots[I];
      S.Key = Batch[I].key();
      if (Seen.count(S.Key) || BatchKeys.count(S.Key)) {
        S.K = Kind::Dup;
        continue;
      }
      if (Result.Evaluations + BudgetUsed >= Opts.MaxEvaluations) {
        S.K = Kind::Dropped;
        continue;
      }
      ++BudgetUsed;
      BatchKeys.insert(S.Key);
      S.Active = Batch[I].activeKey(Sp);
      auto RIt = ReplayCache.find(S.Key);
      if (RIt != ReplayCache.end()) {
        S.K = Kind::Replay;
        S.Out.Metric = RIt->second.Metric;
        S.Out.Failure = RIt->second.Failure;
        S.Out.Detail = RIt->second.Detail;
        ReplayCache.erase(RIt);
        recordProjection(S.Active, S.Out);
        continue;
      }
      if (Opts.StaticFilter) {
        if (std::optional<EvalOutcome> Pruned = Opts.StaticFilter(Batch[I])) {
          S.K = Kind::Pruned;
          S.Out = std::move(*Pruned);
          continue;
        }
      }
      if (auto It = Projections.find(S.Active); It != Projections.end()) {
        S.K = Kind::Projected;
        S.Out = It->second;
        continue;
      }
      if (auto [It, First] = BatchLeaders.try_emplace(S.Active, I); !First) {
        S.K = Kind::Projected;
        S.Leader = It->second;
        continue;
      }
      S.K = Kind::Pending;
      Pending.push_back(I);
    }

    assess(Batch, Slots, Pending);
    // A repeat takes its leader's outcome, or is assessed itself when that
    // outcome is unstable.
    std::vector<size_t> Retry;
    for (size_t I = 0; I < Batch.size(); ++I) {
      Slot &S = Slots[I];
      if (!S.Leader)
        continue;
      const EvalOutcome &Led = Slots[*S.Leader].Out;
      if (Led.Failure != FailureKind::MetricUnstable) {
        S.Out = Led;
      } else {
        S.K = Kind::Pending;
        Retry.push_back(I);
      }
    }
    assess(Batch, Slots, Retry);

    // Commit pass, in proposal order.
    std::vector<BatchItem> Items(Batch.size());
    for (size_t I = 0; I < Batch.size(); ++I) {
      Slot &S = Slots[I];
      BatchItem &Item = Items[I];
      switch (S.K) {
      case Kind::Dup: {
        const auto &Memo = Seen.at(S.Key);
        ++Result.DuplicateHits;
        Item.Metric = Memo.first;
        Item.Valid = Memo.second;
        Item.Assessed = true;
        break;
      }
      case Kind::Dropped:
        break;
      case Kind::Replay:
      case Kind::Pruned:
      case Kind::Projected:
      case Kind::Pending: {
        bool Replayed = S.K == Kind::Replay;
        if (Replayed)
          ++Result.ReplayedEvaluations;
        if (S.K == Kind::Pruned)
          ++Result.PrunedStatic;
        if (S.K == Kind::Projected)
          ++Result.ProjectionHits;
        if (S.K == Kind::Pending)
          recordProjection(S.Active, S.Out);
        ++Result.Evaluations;
        Item.Valid = S.Out.ok();
        Item.Metric = Item.Valid ? S.Out.Metric
                                 : std::numeric_limits<double>::infinity();
        Item.Fresh = true;
        Item.Assessed = true;
        Seen[S.Key] = {Item.Metric, Item.Valid};
        if (!Item.Valid) {
          ++Result.InvalidPoints;
          ++Result.FailureCounts[static_cast<size_t>(S.Out.Failure)];
        }
        EvalRecord Rec;
        Rec.P = Batch[I];
        Rec.Metric = Item.Metric;
        Rec.Valid = Item.Valid;
        Rec.Failure = S.Out.Failure;
        Rec.Detail = std::move(S.Out.Detail);
        Result.History.push_back(std::move(Rec));
        if (!Replayed && Opts.OnFreshEval)
          Opts.OnFreshEval(Result.History.back());
        if (Item.Valid && Item.Metric < Result.BestMetric) {
          Result.BestMetric = Item.Metric;
          Result.Best = Batch[I];
          Result.Found = true;
          Improved = true;
        }
        break;
      }
      }
    }
    return Items;
  }

  /// Single-point convenience wrapper (the sequential searchers' path);
  /// returns true when an evaluation (not a duplicate) happened.
  bool evaluate(const Point &P, double &Metric, bool &Valid) {
    std::vector<BatchItem> Items = evaluateBatch({P});
    Metric = Items[0].Metric;
    Valid = Items[0].Valid;
    return Items[0].Fresh;
  }

  bool takeImproved() {
    bool I = Improved;
    Improved = false;
    return I;
  }

private:
  enum class Kind : uint8_t {
    Dup,
    Replay,
    Pruned,
    Projected,
    Pending,
    Dropped
  };
  /// One proposal of a batch, as classified.
  struct Slot {
    std::string Key, Active;
    Kind K = Kind::Dropped;
    EvalOutcome Out;
    /// A Projected slot that repeats a pending slot of this batch.
    std::optional<size_t> Leader;
  };

  /// Assesses the proposals at \p Indices concurrently, into their slots.
  void assess(const std::vector<Point> &Batch, std::vector<Slot> &Slots,
              const std::vector<size_t> &Indices) {
    if (Indices.empty())
      return;
    ++Result.Batches;
    Result.ObjectiveCalls += static_cast<int>(Indices.size());
    Result.MaxBatch =
        std::max(Result.MaxBatch, static_cast<int>(Indices.size()));
    if (Indices.size() > 1 && Pool.jobs() > 1)
      Result.PooledEvaluations += static_cast<int>(Indices.size());
    Pool.run(Indices.size(), [&](size_t J) {
      Slots[Indices[J]].Out = Obj.assess(Batch[Indices[J]]);
    });
  }

  /// The first outcome of a projection serves its later repeats; an
  /// unstable reading serves none.
  void recordProjection(const std::string &Active, const EvalOutcome &Out) {
    if (Out.Failure != FailureKind::MetricUnstable)
      Projections.try_emplace(Active, Out);
  }

  const Space &Sp;
  Objective &Obj;
  const SearchOptions &Opts;
  SearchResult &Result;
  EvalPool Pool;
  std::map<std::string, std::pair<double, bool>> Seen;
  std::map<std::string, EvalRecord> ReplayCache;
  std::unordered_map<std::string, EvalOutcome> Projections;
  bool Improved = false;
};

//===----------------------------------------------------------------------===//
// Mutation move shared by hill climbing and the bandit ensemble
//===----------------------------------------------------------------------===//

Point mutate(const Space &S, const Point &Base, Rng &R) {
  Point P = Base;
  if (S.Params.empty())
    return P;
  const ParamDef &Def = S.Params[R.index(S.Params.size())];
  auto &Slot = P.Values[Def.Id];
  if (Def.Kind == ParamKind::Permutation) {
    auto Perm = std::get<std::vector<int>>(Slot);
    if (Perm.size() >= 2) {
      size_t A = R.index(Perm.size());
      size_t B = R.index(Perm.size());
      std::swap(Perm[A], Perm[B]);
    }
    Slot = Perm;
    return P;
  }
  if (Def.Kind == ParamKind::FloatRange || Def.Kind == ParamKind::LogFloat) {
    double Cur = std::get<double>(Slot);
    double Width = (Def.FMax - Def.FMin) * 0.15;
    double Next = std::clamp(Cur + R.normal() * Width, Def.FMin, Def.FMax);
    Slot = Next;
    return P;
  }
  std::vector<PointValue> Values = enumerateValues(Def);
  // Step to a neighboring value most of the time; jump occasionally.
  int64_t Cur = std::get<int64_t>(Slot);
  size_t CurIdx = 0;
  for (size_t I = 0; I < Values.size(); ++I)
    if (std::get<int64_t>(Values[I]) == Cur)
      CurIdx = I;
  if (Values.size() > 1 && R.chance(0.7)) {
    size_t Next = CurIdx;
    if (CurIdx == 0)
      Next = 1;
    else if (CurIdx + 1 >= Values.size())
      Next = CurIdx - 1;
    else
      Next = R.chance(0.5) ? CurIdx - 1 : CurIdx + 1;
    Slot = Values[Next];
  } else {
    Slot = Values[R.index(Values.size())];
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Exhaustive
//===----------------------------------------------------------------------===//

class ExhaustiveSearcher : public Searcher {
public:
  std::string name() const override { return "exhaustive"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    std::vector<std::vector<PointValue>> ValueLists;
    for (const ParamDef &P : S.Params)
      ValueLists.push_back(enumerateValues(P));

    // Enumeration is outcome-independent, so the next stretch of the sweep
    // is proposed as one batch and evaluated concurrently.
    std::vector<size_t> Odometer(S.Params.size(), 0);
    bool Done = false;
    while (Driver.budgetLeft() && !Done) {
      std::vector<Point> Batch;
      while (Batch.size() < SpeculativeBatch && !Done) {
        Point P;
        for (size_t I = 0; I < S.Params.size(); ++I)
          P.Values[S.Params[I].Id] = ValueLists[I][Odometer[I]];
        Batch.push_back(std::move(P));
        // Advance the odometer.
        size_t I = 0;
        for (; I < Odometer.size(); ++I) {
          if (++Odometer[I] < ValueLists[I].size())
            break;
          Odometer[I] = 0;
        }
        if (I == Odometer.size() || Odometer.empty())
          Done = true; // wrapped: the whole space is enumerated
      }
      Driver.evaluateBatch(Batch);
    }
    return Result;
  }
};

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

class RandomSearcher : public Searcher {
public:
  std::string name() const override { return "random"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    Rng R(Opts.Seed);
    // Sampling is outcome-independent: draw the next stretch up front and
    // evaluate it as one concurrent batch. The Rng consumption order equals
    // the serial one, so the sampled stream is unchanged.
    int Stale = 0;
    while (Driver.budgetLeft() && Stale < Opts.MaxEvaluations * 4) {
      std::vector<Point> Batch;
      for (size_t I = 0; I < SpeculativeBatch; ++I)
        Batch.push_back(samplePoint(S, R));
      for (const BatchItem &Item : Driver.evaluateBatch(Batch)) {
        if (Item.Fresh)
          Stale = 0;
        else if (Item.Assessed)
          ++Stale;
      }
    }
    return Result;
  }
};

//===----------------------------------------------------------------------===//
// Hill climbing with restarts
//===----------------------------------------------------------------------===//

class HillClimbSearcher : public Searcher {
public:
  std::string name() const override { return "hillclimb"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    Rng R(Opts.Seed);

    Point Current = samplePoint(S, R);
    double CurrentMetric;
    bool Valid;
    Driver.evaluate(Current, CurrentMetric, Valid);
    int SinceImprovement = 0;
    int Stale = 0;
    while (Driver.budgetLeft() && Stale < Opts.MaxEvaluations * 4) {
      Point Next = mutate(S, Current, R);
      double Metric;
      bool NextValid;
      bool Fresh = Driver.evaluate(Next, Metric, NextValid);
      if (!Fresh)
        ++Stale;
      if (NextValid && (Metric < CurrentMetric || !Valid)) {
        Current = Next;
        CurrentMetric = Metric;
        Valid = true;
        SinceImprovement = 0;
      } else if (++SinceImprovement > 20) {
        // Restart from a fresh random point.
        Current = samplePoint(S, R);
        Driver.evaluate(Current, CurrentMetric, Valid);
        SinceImprovement = 0;
      }
    }
    return Result;
  }
};

//===----------------------------------------------------------------------===//
// Differential evolution on normalized coordinates
//===----------------------------------------------------------------------===//

class DeSearcher : public Searcher {
public:
  std::string name() const override { return "de"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    Rng R(Opts.Seed);

    // The initial population is one outcome-independent batch.
    const size_t PopSize = 10;
    std::vector<Point> Init;
    for (size_t I = 0; I < PopSize; ++I)
      Init.push_back(samplePoint(S, R));
    std::vector<BatchItem> InitItems = Driver.evaluateBatch(Init);
    std::vector<Point> Pop;
    std::vector<double> Fitness;
    for (size_t I = 0; I < Init.size(); ++I) {
      if (!InitItems[I].Assessed)
        break; // budget boundary
      Pop.push_back(std::move(Init[I]));
      Fitness.push_back(InitItems[I].Valid
                            ? InitItems[I].Metric
                            : std::numeric_limits<double>::infinity());
    }
    if (Pop.size() < 4)
      return Result;

    // Generational DE: every generation's trials are combined from a
    // snapshot of the population, so the whole generation is proposal-
    // independent and evaluates as one concurrent batch; selection commits
    // afterwards, member by member, in order.
    int Stale = 0;
    while (Driver.budgetLeft() && Stale < Opts.MaxEvaluations * 4) {
      std::vector<Point> Trials;
      for (size_t I = 0; I < Pop.size(); ++I) {
        size_t A = R.index(Pop.size()), B = R.index(Pop.size()),
               C = R.index(Pop.size());
        Trials.push_back(combine(S, Pop[I], Pop[A], Pop[B], Pop[C], R));
      }
      std::vector<BatchItem> Items = Driver.evaluateBatch(Trials);
      for (size_t I = 0; I < Trials.size(); ++I) {
        if (!Items[I].Assessed)
          break; // budget boundary
        if (Items[I].Fresh)
          Stale = 0;
        else
          ++Stale;
        if (Items[I].Valid && Items[I].Metric < Fitness[I]) {
          Pop[I] = std::move(Trials[I]);
          Fitness[I] = Items[I].Metric;
        }
      }
    }
    return Result;
  }

private:
  /// Classic rand/1/bin on a normalized [0,1] coordinate per parameter.
  Point combine(const Space &S, const Point &Target, const Point &A,
                const Point &B, const Point &C, Rng &R) {
    Point Trial = Target;
    const double F = 0.6, CR = 0.8;
    for (const ParamDef &Def : S.Params) {
      if (!R.chance(CR))
        continue;
      if (Def.Kind == ParamKind::Permutation) {
        Trial.Values[Def.Id] = sampleValue(Def, R);
        continue;
      }
      double XA = norm(Def, A), XB = norm(Def, B), XC = norm(Def, C);
      double X = std::clamp(XA + F * (XB - XC), 0.0, 1.0);
      Trial.Values[Def.Id] = denorm(Def, X, R);
    }
    return Trial;
  }

  static double norm(const ParamDef &Def, const Point &P) {
    const PointValue &V = P.Values.at(Def.Id);
    if (Def.Kind == ParamKind::FloatRange || Def.Kind == ParamKind::LogFloat) {
      double X = std::get<double>(V);
      return Def.FMax > Def.FMin ? (X - Def.FMin) / (Def.FMax - Def.FMin) : 0;
    }
    std::vector<PointValue> Values = enumerateValues(Def);
    int64_t X = std::get<int64_t>(V);
    for (size_t I = 0; I < Values.size(); ++I)
      if (std::get<int64_t>(Values[I]) == X)
        return Values.size() > 1
                   ? static_cast<double>(I) / (Values.size() - 1)
                   : 0.0;
    return 0;
  }

  static PointValue denorm(const ParamDef &Def, double X, Rng &R) {
    (void)R;
    if (Def.Kind == ParamKind::FloatRange || Def.Kind == ParamKind::LogFloat)
      return Def.FMin + X * (Def.FMax - Def.FMin);
    std::vector<PointValue> Values = enumerateValues(Def);
    size_t Idx = static_cast<size_t>(
        std::lround(X * static_cast<double>(Values.size() - 1)));
    return Values[std::min(Idx, Values.size() - 1)];
  }
};

//===----------------------------------------------------------------------===//
// AUC-bandit ensemble (the OpenTuner stand-in)
//===----------------------------------------------------------------------===//

class BanditSearcher : public Searcher {
public:
  std::string name() const override { return "bandit"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    Rng R(Opts.Seed);

    // Move generators: random, greedy mutation of the best, and a
    // crossover-style recombination of two elites.
    const int NumArms = 3;
    std::vector<std::vector<int>> Window(static_cast<size_t>(NumArms));
    std::vector<int> Uses(static_cast<size_t>(NumArms), 0);
    const size_t WindowCap = 50;
    int T = 0;

    std::vector<std::pair<double, Point>> Elites;

    // Seed with the midpoint default configuration (as OpenTuner seeds
    // sensible defaults) followed by random points.
    {
      Point Mid;
      for (const ParamDef &Def : S.Params) {
        std::vector<PointValue> Values = enumerateValues(Def);
        Mid.Values[Def.Id] = Values[Values.size() / 2];
      }
      double Metric;
      bool Valid;
      Driver.evaluate(Mid, Metric, Valid);
      if (Valid)
        recordElite(Elites, Metric, Mid);
    }
    for (int I = 0; I < 4 && Driver.budgetLeft(); ++I) {
      Point P = samplePoint(S, R);
      double Metric;
      bool Valid;
      Driver.evaluate(P, Metric, Valid);
      if (Valid)
        recordElite(Elites, Metric, P);
    }

    int Stale = 0;
    while (Driver.budgetLeft() && Stale < Opts.MaxEvaluations * 4) {
      ++T;
      int Arm = pickArm(Window, Uses, T);
      Point P;
      if (Arm == 0 || Elites.empty()) {
        P = samplePoint(S, R);
      } else if (Arm == 1) {
        P = mutate(S, Elites[R.index(Elites.size())].second, R);
      } else {
        const Point &A = Elites[R.index(Elites.size())].second;
        const Point &B = Elites[R.index(Elites.size())].second;
        P = crossover(S, A, B, R);
      }
      double Metric;
      bool Valid;
      bool Fresh = Driver.evaluate(P, Metric, Valid);
      // A duplicate proposal is negative feedback for the arm that produced
      // it. Crediting it keeps the bandit state moving during duplicate
      // streaks; otherwise pickArm's inputs freeze and the same exhausted
      // arm is chosen until the stale limit aborts the search.
      bool NewBest = Fresh && Driver.takeImproved();
      auto &Hist = Window[static_cast<size_t>(Arm)];
      Hist.push_back(NewBest ? 1 : 0);
      if (Hist.size() > WindowCap)
        Hist.erase(Hist.begin());
      ++Uses[static_cast<size_t>(Arm)];
      if (!Fresh) {
        ++Stale;
        continue; // the paper notes OpenTuner avoids re-assessing variants
      }
      Stale = 0;
      if (Valid)
        recordElite(Elites, Metric, P);
    }
    return Result;
  }

private:
  static void recordElite(std::vector<std::pair<double, Point>> &Elites,
                          double Metric, const Point &P) {
    Elites.emplace_back(Metric, P);
    std::sort(Elites.begin(), Elites.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    if (Elites.size() > 8)
      Elites.resize(8);
  }

  /// AUC credit: exponentially weighted recency of "produced a new best",
  /// plus a UCB exploration bonus.
  static int pickArm(const std::vector<std::vector<int>> &Window,
                     const std::vector<int> &Uses, int T) {
    int BestArm = 0;
    double BestScore = -1;
    for (size_t Arm = 0; Arm < Window.size(); ++Arm) {
      double Auc = 0, Weight = 0;
      const auto &Hist = Window[Arm];
      for (size_t I = 0; I < Hist.size(); ++I) {
        double W = static_cast<double>(I + 1);
        Auc += W * Hist[I];
        Weight += W;
      }
      double Exploit = Weight > 0 ? Auc / Weight : 0;
      double Explore =
          std::sqrt(2.0 * std::log(static_cast<double>(T + 1)) /
                    (Uses[Arm] + 1));
      double Score = Exploit + 0.3 * Explore;
      if (Score > BestScore) {
        BestScore = Score;
        BestArm = static_cast<int>(Arm);
      }
    }
    return BestArm;
  }

  static Point crossover(const Space &S, const Point &A, const Point &B,
                         Rng &R) {
    Point P = A;
    for (const ParamDef &Def : S.Params)
      if (R.chance(0.5))
        P.Values[Def.Id] = B.Values.at(Def.Id);
    return P;
  }
};

//===----------------------------------------------------------------------===//
// Tree-structured Parzen estimator (the HyperOpt stand-in)
//===----------------------------------------------------------------------===//

class TpeSearcher : public Searcher {
public:
  std::string name() const override { return "tpe"; }

  SearchResult search(const Space &S, Objective &Obj,
                      const SearchOptions &Opts) override {
    SearchResult Result;
    EvalDriver Driver(S, Obj, Opts, Result);
    Rng R(Opts.Seed);

    std::vector<std::pair<double, Point>> History;

    const int Startup = std::min(10, std::max(3, Opts.MaxEvaluations / 10));
    int Stale = 0;
    while (Driver.budgetLeft() && Stale < Opts.MaxEvaluations * 4) {
      Point P;
      if (static_cast<int>(History.size()) < Startup) {
        P = samplePoint(S, R);
      } else if (Stale > 0 && R.chance(0.5)) {
        // The model proposed an already-assessed point last round; its
        // density estimate has concentrated on exhausted ground. Fall back
        // to uniform exploration until a proposal lands somewhere fresh.
        P = samplePoint(S, R);
      } else {
        P = propose(S, History, R);
      }
      double Metric;
      bool Valid;
      bool Fresh = Driver.evaluate(P, Metric, Valid);
      if (!Fresh) {
        ++Stale;
        continue;
      }
      Stale = 0;
      // Failed points enter the history with their infinite sentinel metric:
      // they sort to the bad tail of the split, so the density ratio steers
      // proposals away from the failing subspace instead of forgetting it.
      History.emplace_back(Metric, P);
    }
    return Result;
  }

private:
  /// Splits history at the gamma quantile into good/bad sets and proposes
  /// the candidate maximizing the density ratio l(x)/g(x), per parameter.
  Point propose(const Space &S, std::vector<std::pair<double, Point>> History,
                Rng &R) {
    std::sort(History.begin(), History.end(),
              [](const auto &A, const auto &B) { return A.first < B.first; });
    size_t NGood = std::max<size_t>(1, History.size() / 4);

    Point Best;
    double BestScore = -std::numeric_limits<double>::infinity();
    const int Candidates = 16;
    for (int C = 0; C < Candidates; ++C) {
      Point P;
      double Score = 0;
      for (const ParamDef &Def : S.Params) {
        // Sample around a random good observation.
        const Point &Anchor = History[R.index(NGood)].second;
        PointValue V = perturb(Def, Anchor.Values.at(Def.Id), R);
        Score += std::log(density(Def, V, History, 0, NGood) + 1e-9) -
                 std::log(density(Def, V, History, NGood, History.size()) +
                          1e-9);
        P.Values[Def.Id] = std::move(V);
      }
      if (Score > BestScore) {
        BestScore = Score;
        Best = std::move(P);
      }
    }
    return Best;
  }

  PointValue perturb(const ParamDef &Def, const PointValue &Anchor, Rng &R) {
    if (Def.Kind == ParamKind::Permutation) {
      auto Perm = std::get<std::vector<int>>(Anchor);
      if (Perm.size() >= 2 && R.chance(0.5))
        std::swap(Perm[R.index(Perm.size())], Perm[R.index(Perm.size())]);
      return Perm;
    }
    if (Def.Kind == ParamKind::FloatRange || Def.Kind == ParamKind::LogFloat) {
      double X = std::get<double>(Anchor);
      double W = (Def.FMax - Def.FMin) * 0.2;
      return std::clamp(X + R.normal() * W, Def.FMin, Def.FMax);
    }
    std::vector<PointValue> Values = enumerateValues(Def);
    if (R.chance(0.35))
      return Values[R.index(Values.size())];
    int64_t X = std::get<int64_t>(Anchor);
    size_t Idx = 0;
    for (size_t I = 0; I < Values.size(); ++I)
      if (std::get<int64_t>(Values[I]) == X)
        Idx = I;
    int64_t Offset = R.range(-1, 1);
    int64_t NewIdx = std::clamp<int64_t>(static_cast<int64_t>(Idx) + Offset, 0,
                                         static_cast<int64_t>(Values.size()) - 1);
    return Values[static_cast<size_t>(NewIdx)];
  }

  /// Kernel density of a value within History[Begin, End).
  double density(const ParamDef &Def, const PointValue &V,
                 const std::vector<std::pair<double, Point>> &History,
                 size_t Begin, size_t End) {
    if (Begin >= End)
      return 0;
    double Sum = 0;
    for (size_t I = Begin; I < End; ++I) {
      const PointValue &O = History[I].second.Values.at(Def.Id);
      if (Def.Kind == ParamKind::FloatRange ||
          Def.Kind == ParamKind::LogFloat) {
        double W = std::max(1e-9, (Def.FMax - Def.FMin) * 0.15);
        double D = (std::get<double>(V) - std::get<double>(O)) / W;
        Sum += std::exp(-0.5 * D * D);
      } else if (Def.Kind == ParamKind::Permutation) {
        Sum += std::get<std::vector<int>>(V) == std::get<std::vector<int>>(O)
                   ? 1.0
                   : 0.05;
      } else {
        std::vector<PointValue> Values = enumerateValues(Def);
        double W = std::max(1.0, static_cast<double>(Values.size()) * 0.15);
        auto IndexOf = [&](int64_t X) {
          for (size_t J = 0; J < Values.size(); ++J)
            if (std::get<int64_t>(Values[J]) == X)
              return static_cast<double>(J);
          return 0.0;
        };
        double D = (IndexOf(std::get<int64_t>(V)) -
                    IndexOf(std::get<int64_t>(O))) /
                   W;
        Sum += std::exp(-0.5 * D * D);
      }
    }
    return Sum / static_cast<double>(End - Begin);
  }
};

} // namespace

std::unique_ptr<Searcher> makeExhaustiveSearcher() {
  return std::make_unique<ExhaustiveSearcher>();
}
std::unique_ptr<Searcher> makeRandomSearcher() {
  return std::make_unique<RandomSearcher>();
}
std::unique_ptr<Searcher> makeHillClimbSearcher() {
  return std::make_unique<HillClimbSearcher>();
}
std::unique_ptr<Searcher> makeDifferentialEvolutionSearcher() {
  return std::make_unique<DeSearcher>();
}
std::unique_ptr<Searcher> makeBanditSearcher() {
  return std::make_unique<BanditSearcher>();
}
std::unique_ptr<Searcher> makeTpeSearcher() {
  return std::make_unique<TpeSearcher>();
}

std::unique_ptr<Searcher> makeSearcher(const std::string &Name) {
  if (Name == "exhaustive")
    return makeExhaustiveSearcher();
  if (Name == "random")
    return makeRandomSearcher();
  if (Name == "hillclimb")
    return makeHillClimbSearcher();
  if (Name == "de")
    return makeDifferentialEvolutionSearcher();
  if (Name == "bandit" || Name == "opentuner")
    return makeBanditSearcher();
  if (Name == "tpe" || Name == "hyperopt")
    return makeTpeSearcher();
  return nullptr;
}

} // namespace search
} // namespace locus
