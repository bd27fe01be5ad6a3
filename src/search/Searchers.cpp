//===- Searchers.cpp - Built-in search modules --------------------------------===//

#include "src/search/Search.h"

#include "src/search/EvalPool.h"
#include "src/search/PointCodec.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string_view>
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

std::vector<PointValue> enumerateValues(const ParamDef &P) {
  std::vector<PointValue> Out;
  if (P.indexed()) {
    Out.resize(P.cardinality());
    for (uint64_t I = 0; I < Out.size(); ++I)
      Out[I] = P.valueAt(I);
    return Out;
  }
  if (P.Kind == ParamKind::Permutation) {
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
  const int Steps = 16;
  Out.resize(Steps);
  for (int I = 0; I < Steps; ++I) {
    double T = static_cast<double>(I) / (Steps - 1);
    if (P.Kind == ParamKind::LogFloat && P.FMin > 0)
      Out[I] = P.FMin * std::pow(P.FMax / P.FMin, T);
    else
      Out[I] = P.FMin + T * (P.FMax - P.FMin);
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
  if (P.indexed())
    return P.valueAt(R.index(P.cardinality()));
  std::vector<PointValue> Values = enumerateValues(P); // non-positive logfloat
  return Values[R.index(Values.size())];
}

Point samplePoint(const Space &S, Rng &R) {
  Point P(S);
  for (size_t I = 0; I < S.Params.size(); ++I)
    P[I] = sampleValue(S.Params[I], R);
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

/// A point's identity over the driver's space, computed once per proposal:
/// its values (or, for an active key, its active values) as bytes in
/// Space::Params order, and their hash. Equal bytes mean equal key() (or
/// activeKey()) text, so a hash match is confirmed by comparing the bytes.
struct PointKey {
  std::string Bytes;
  size_t Hash = 0;
  bool operator==(const PointKey &O) const {
    return Hash == O.Hash && Bytes == O.Bytes;
  }
};

struct PointKeyHash {
  size_t operator()(const PointKey &K) const { return K.Hash; }
};

template <typename T> void appendRaw(std::string &Out, const T &V) {
  Out.append(reinterpret_cast<const char *>(&V), sizeof(V));
}

void appendValue(std::string &Out, const PointValue &V) {
  Out += static_cast<char>('0' + V.index());
  if (const auto *I = std::get_if<int64_t>(&V)) {
    appendRaw(Out, *I);
  } else if (const auto *D = std::get_if<double>(&V)) {
    appendRaw(Out, *D);
  } else if (const auto *Str = std::get_if<std::string>(&V)) {
    appendRaw(Out, Str->size());
    Out += *Str;
  } else if (const auto *Perm = std::get_if<std::vector<int>>(&V)) {
    appendRaw(Out, Perm->size());
    for (int X : *Perm)
      appendRaw(Out, X);
  }
}

/// The key of \p P over \p S; an inactive parameter (when \p Active) is
/// an 'x' byte. A point of another layout is keyed as its re-parse over
/// \p S or, if it pins other ids than \p S, by its text behind a 0 byte,
/// which no point of \p S shares.
PointKey keyOf(const Space &S, const Point &P, bool Active) {
  PointKey K;
  auto Pinned = [&P](const ParamGuard &G) {
    const int64_t *Arm = std::get_if<int64_t>(&P[G.Param]);
    return Arm && *Arm == G.Alt;
  };
  if (P.laidOutBy(S)) {
    for (size_t I = 0; I < P.size(); ++I) {
      const std::vector<ParamGuard> &Guards = S.Params[I].Guards;
      if (Active && !std::all_of(Guards.begin(), Guards.end(), Pinned))
        K.Bytes += 'x';
      else
        appendValue(K.Bytes, P[I]);
    }
  } else if (Expected<Point> Dense = deserializePoint(serializePoint(P), S);
             Dense.ok() && Dense->laidOutBy(S)) {
    return keyOf(S, *Dense, Active);
  } else {
    K.Bytes = '\0' + (Active ? P.activeKey(S) : P.key());
  }
  K.Hash = std::hash<std::string_view>()(K.Bytes);
  return K;
}

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
        Pool(Obj.concurrencySafe() ? Opts.Jobs : 1),
        SpaceSize(std::none_of(S.Params.begin(), S.Params.end(),
                               [](const ParamDef &P) {
                                 return P.Kind == ParamKind::FloatRange ||
                                        P.Kind == ParamKind::LogFloat;
                               })
                      ? S.fullSize()
                      : std::numeric_limits<uint64_t>::max()) {
    for (const EvalRecord &R : Opts.Replay)
      ReplayCache.emplace(keyOf(Sp, R.P, false), R);
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
    // An exhausted space: every later proposal would be an exact duplicate,
    // which spends no budget and records nothing, so stopping here changes
    // no History, journal or best point.
    if (Seen.size() >= SpaceSize)
      return false;
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
  std::vector<BatchItem> evaluateBatch(std::span<const Point> Batch) {
    std::vector<Slot> Slots(Batch.size());
    std::vector<size_t> Pending;
    // Earlier budgeted proposals of this batch (at most a generation).
    auto EarlierInBatch = [&Slots](size_t I, auto Same) {
      for (size_t J = 0; J < I; ++J)
        if (Slots[J].K != Kind::Dup && Slots[J].K != Kind::Dropped &&
            Same(Slots[J]))
          return J;
      return I;
    };
    int BudgetUsed = 0;

    // Classification pass (replay consumption and StaticFilter calls keep
    // their serial order).
    for (size_t I = 0; I < Batch.size(); ++I) {
      Slot &S = Slots[I];
      S.Key = keyOf(Sp, Batch[I], false);
      if (Seen.count(S.Key) ||
          EarlierInBatch(I, [&S](const Slot &E) { return E.Key == S.Key; }) !=
              I) {
        S.K = Kind::Dup;
        continue;
      }
      if (Result.Evaluations + BudgetUsed >= Opts.MaxEvaluations) {
        S.K = Kind::Dropped;
        continue;
      }
      ++BudgetUsed;
      S.Active = keyOf(Sp, Batch[I], true);
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
      if (size_t L = EarlierInBatch(I,
                                    [&S](const Slot &E) {
                                      return E.K == Kind::Pending &&
                                             E.Active == S.Active;
                                    });
          L != I) {
        S.K = Kind::Projected;
        S.Leader = L;
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
        Seen.insert_or_assign(std::move(S.Key),
                              std::make_pair(Item.Metric, Item.Valid));
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
    std::vector<BatchItem> Items = evaluateBatch(std::span<const Point>(&P, 1));
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
    PointKey Key, Active;
    Kind K = Kind::Dropped;
    EvalOutcome Out;
    /// A Projected slot that repeats a pending slot of this batch.
    std::optional<size_t> Leader;
  };

  /// Assesses the proposals at \p Indices concurrently, into their slots.
  void assess(std::span<const Point> Batch, std::vector<Slot> &Slots,
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
  void recordProjection(const PointKey &Active, const EvalOutcome &Out) {
    if (Out.Failure != FailureKind::MetricUnstable)
      Projections.try_emplace(Active, Out);
  }

  const Space &Sp;
  Objective &Obj;
  const SearchOptions &Opts;
  SearchResult &Result;
  EvalPool Pool;
  /// Points of the space when no parameter is a float range, else
  /// UINT64_MAX: once Seen holds that many, the space is exhausted.
  uint64_t SpaceSize;
  std::unordered_map<PointKey, std::pair<double, bool>, PointKeyHash> Seen;
  std::unordered_map<PointKey, EvalRecord, PointKeyHash> ReplayCache;
  std::unordered_map<PointKey, EvalOutcome, PointKeyHash> Projections;
  bool Improved = false;
};

//===----------------------------------------------------------------------===//
// Mutation move shared by hill climbing and the bandit ensemble
//===----------------------------------------------------------------------===//

Point mutate(const Space &S, const Point &Base, Rng &R) {
  Point P = Base;
  if (S.Params.empty())
    return P;
  assert(P.laidOutBy(S) && "mutating a point of another space");
  size_t Slot = R.index(S.Params.size());
  const ParamDef &Def = S.Params[Slot];
  PointValue &V = P[Slot];
  if (Def.Kind == ParamKind::Permutation) {
    auto &Perm = std::get<std::vector<int>>(V);
    if (Perm.size() >= 2) {
      size_t A = R.index(Perm.size());
      size_t B = R.index(Perm.size());
      std::swap(Perm[A], Perm[B]);
    }
    return P;
  }
  if (!Def.indexed()) {
    double Cur = std::get<double>(V);
    double Width = (Def.FMax - Def.FMin) * 0.15;
    V = std::clamp(Cur + R.normal() * Width, Def.FMin, Def.FMax);
    return P;
  }
  // Step to a neighboring value most of the time; jump occasionally.
  uint64_t N = Def.cardinality();
  uint64_t Cur = Def.indexOf(std::get<int64_t>(V));
  if (N > 1 && R.chance(0.7)) {
    uint64_t Next = Cur;
    if (Cur == 0)
      Next = 1;
    else if (Cur + 1 >= N)
      Next = Cur - 1;
    else
      Next = R.chance(0.5) ? Cur - 1 : Cur + 1;
    V = Def.valueAt(Next);
  } else {
    V = Def.valueAt(R.index(N));
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
        Point P(S);
        for (size_t I = 0; I < S.Params.size(); ++I)
          P[I] = ValueLists[I][Odometer[I]];
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
    for (size_t I = 0; I < S.Params.size(); ++I) {
      const ParamDef &Def = S.Params[I];
      if (!R.chance(CR))
        continue;
      if (Def.Kind == ParamKind::Permutation) {
        Trial[I] = sampleValue(Def, R);
        continue;
      }
      double XA = norm(Def, A[I]), XB = norm(Def, B[I]), XC = norm(Def, C[I]);
      double X = std::clamp(XA + F * (XB - XC), 0.0, 1.0);
      Trial[I] = denorm(Def, X);
    }
    return Trial;
  }

  static double norm(const ParamDef &Def, const PointValue &V) {
    if (!Def.indexed()) {
      double X = std::get<double>(V);
      return Def.FMax > Def.FMin ? (X - Def.FMin) / (Def.FMax - Def.FMin) : 0;
    }
    uint64_t N = Def.cardinality();
    return N > 1 ? static_cast<double>(Def.indexOf(std::get<int64_t>(V))) /
                       static_cast<double>(N - 1)
                 : 0.0;
  }

  static PointValue denorm(const ParamDef &Def, double X) {
    if (!Def.indexed())
      return Def.FMin + X * (Def.FMax - Def.FMin);
    uint64_t N = Def.cardinality();
    auto Idx = static_cast<uint64_t>(
        std::lround(X * static_cast<double>(N - 1)));
    return Def.valueAt(std::min(Idx, N - 1));
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
    std::array<ArmWindow, 3> Arms;
    int T = 0;

    std::vector<std::pair<double, Point>> Elites;

    // Seed with the midpoint default configuration (as OpenTuner seeds
    // sensible defaults) followed by random points.
    {
      Point Mid(S);
      for (size_t I = 0; I < S.Params.size(); ++I) {
        const ParamDef &Def = S.Params[I];
        if (Def.indexed()) {
          Mid[I] = Def.valueAt(Def.cardinality() / 2);
        } else {
          std::vector<PointValue> Values = enumerateValues(Def);
          Mid[I] = Values[Values.size() / 2];
        }
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
      size_t Arm = pickArm(Arms, T);
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
      Arms[Arm].push(NewBest);
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

  /// An arm's last Cap outcomes (1: produced a new best) in a ring, oldest
  /// at Head, with the sums pickArm scores kept as it slides: Ones is the
  /// window's sum and Weighted its sum weighted 1 (oldest) .. Size (newest).
  struct ArmWindow {
    static constexpr size_t Cap = 50;
    std::array<uint8_t, Cap> Ring{};
    size_t Head = 0, Size = 0;
    int64_t Ones = 0, Weighted = 0;
    int Uses = 0;

    void push(bool NewBest) {
      int X = NewBest ? 1 : 0;
      if (Size == Cap) {
        // Dropping the oldest lowers every remaining weight by one.
        Weighted -= Ones;
        Ones -= Ring[Head];
        Ring[Head] = static_cast<uint8_t>(X);
        Head = (Head + 1) % Cap;
      } else {
        Ring[(Head + Size) % Cap] = static_cast<uint8_t>(X);
        ++Size;
      }
      Ones += X;
      Weighted += static_cast<int64_t>(Size) * X;
      ++Uses;
    }
  };

  /// AUC credit: exponentially weighted recency of "produced a new best",
  /// plus a UCB exploration bonus. The sums are small integers, exact in a
  /// double.
  static size_t pickArm(const std::array<ArmWindow, 3> &Arms, int T) {
    size_t BestArm = 0;
    double BestScore = -1;
    for (size_t Arm = 0; Arm < Arms.size(); ++Arm) {
      const ArmWindow &W = Arms[Arm];
      double Weight = static_cast<double>(W.Size * (W.Size + 1) / 2);
      double Exploit =
          Weight > 0 ? static_cast<double>(W.Weighted) / Weight : 0;
      double Explore = std::sqrt(2.0 * std::log(static_cast<double>(T + 1)) /
                                 (W.Uses + 1));
      double Score = Exploit + 0.3 * Explore;
      if (Score > BestScore) {
        BestScore = Score;
        BestArm = Arm;
      }
    }
    return BestArm;
  }

  static Point crossover(const Space &S, const Point &A, const Point &B,
                         Rng &R) {
    Point P = A;
    for (size_t I = 0; I < S.Params.size(); ++I)
      if (R.chance(0.5))
        P[I] = B[I];
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
  Point propose(const Space &S,
                const std::vector<std::pair<double, Point>> &History, Rng &R) {
    // Sorting pointers makes the same comparisons, and so the same order,
    // as sorting the entries themselves.
    std::vector<const std::pair<double, Point> *> Ranked;
    for (const auto &H : History)
      Ranked.push_back(&H);
    std::sort(Ranked.begin(), Ranked.end(),
              [](const auto *A, const auto *B) { return A->first < B->first; });
    size_t NGood = std::max<size_t>(1, History.size() / 4);

    Point Best;
    double BestScore = -std::numeric_limits<double>::infinity();
    const int Candidates = 16;
    for (int C = 0; C < Candidates; ++C) {
      Point P(S);
      double Score = 0;
      for (size_t I = 0; I < S.Params.size(); ++I) {
        const ParamDef &Def = S.Params[I];
        // Sample around a random good observation.
        P[I] = perturb(Def, Ranked[R.index(NGood)]->second[I], R);
        Score += std::log(density(Def, I, P[I], Ranked, 0, NGood) + 1e-9) -
                 std::log(density(Def, I, P[I], Ranked, NGood,
                                  History.size()) +
                          1e-9);
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
    if (!Def.indexed()) {
      double X = std::get<double>(Anchor);
      double W = (Def.FMax - Def.FMin) * 0.2;
      return std::clamp(X + R.normal() * W, Def.FMin, Def.FMax);
    }
    auto N = static_cast<int64_t>(Def.cardinality());
    if (R.chance(0.35))
      return Def.valueAt(R.index(static_cast<size_t>(N)));
    auto Idx = static_cast<int64_t>(Def.indexOf(std::get<int64_t>(Anchor)));
    int64_t Offset = R.range(-1, 1);
    return Def.valueAt(
        static_cast<uint64_t>(std::clamp<int64_t>(Idx + Offset, 0, N - 1)));
  }

  /// Kernel density of value \p V of slot \p Slot within ranks
  /// [Begin, End) of the history.
  double density(const ParamDef &Def, size_t Slot, const PointValue &V,
                 const std::vector<const std::pair<double, Point> *> &Ranked,
                 size_t Begin, size_t End) {
    if (Begin >= End)
      return 0;
    double Sum = 0;
    double W = 0, At = 0;
    if (Def.indexed()) {
      W = std::max(1.0, static_cast<double>(Def.cardinality()) * 0.15);
      At = static_cast<double>(Def.indexOf(std::get<int64_t>(V)));
    } else if (Def.Kind != ParamKind::Permutation) {
      W = std::max(1e-9, (Def.FMax - Def.FMin) * 0.15);
    }
    for (size_t I = Begin; I < End; ++I) {
      const PointValue &O = Ranked[I]->second[Slot];
      if (Def.Kind == ParamKind::Permutation) {
        Sum += std::get<std::vector<int>>(V) == std::get<std::vector<int>>(O)
                   ? 1.0
                   : 0.05;
      } else if (!Def.indexed()) {
        double D = (std::get<double>(V) - std::get<double>(O)) / W;
        Sum += std::exp(-0.5 * D * D);
      } else {
        double D =
            (At - static_cast<double>(Def.indexOf(std::get<int64_t>(O)))) / W;
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
