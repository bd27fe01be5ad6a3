//===- Space.cpp - Optimization search space ----------------------------------===//

#include "src/search/Space.h"

#include "src/search/RecordCodec.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace locus {
namespace search {

namespace {

uint64_t saturatingMul(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > std::numeric_limits<uint64_t>::max() / B)
    return std::numeric_limits<uint64_t>::max();
  return A * B;
}

uint64_t factorial(int N) {
  uint64_t F = 1;
  for (int I = 2; I <= N; ++I)
    F = saturatingMul(F, static_cast<uint64_t>(I));
  return F;
}

/// Walks loginteger(Min..Max)'s geometric grid (ratio ~1.5, deduplicated),
/// calling Visit(Value) on each value in order until it returns false.
template <typename Fn> void walkLogInt(int64_t Min, int64_t Max, Fn Visit) {
  double V = static_cast<double>(std::max<int64_t>(1, Min));
  int64_t Last = 0;
  bool Any = false;
  while (static_cast<int64_t>(V) <= Max) {
    int64_t I = static_cast<int64_t>(V);
    if (!Any || Last != I) {
      if (!Visit(I))
        return;
      Last = I;
      Any = true;
    }
    V *= 1.5;
    if (V < static_cast<double>(Last) + 1)
      V = static_cast<double>(Last) + 1;
  }
  if (!Any)
    Visit(Min);
}

/// The smallest power of two at least Min (and at least 1).
int64_t firstPow2(int64_t Min) {
  int64_t V = 1;
  while (V < Min)
    V <<= 1;
  return V;
}

/// Appends "Id=value;" in the canonical form Point::key() uses.
void appendEntry(std::string &Out, const std::string &Id, const PointValue &V) {
  Out += Id;
  Out += '=';
  if (const auto *I = std::get_if<int64_t>(&V))
    Out += std::to_string(*I);
  else if (const auto *D = std::get_if<double>(&V))
    Out += formatDouble(*D);
  else if (const auto *S = std::get_if<std::string>(&V))
    Out += *S;
  else if (const auto *P = std::get_if<std::vector<int>>(&V)) {
    for (int X : *P) {
      Out += std::to_string(X);
      Out += ',';
    }
  }
  Out += ';';
}

} // namespace

uint64_t ParamDef::cardinality() const {
  switch (Kind) {
  case ParamKind::Enum:
    return Options.empty() ? 1 : Options.size();
  case ParamKind::Bool:
    return 2;
  case ParamKind::IntRange:
    return Max < Min ? 1 : static_cast<uint64_t>(Max - Min) + 1;
  case ParamKind::Pow2: {
    uint64_t N = 0;
    for (int64_t V = firstPow2(Min); V <= Max; V <<= 1)
      ++N;
    return std::max<uint64_t>(N, 1);
  }
  case ParamKind::LogInt: {
    uint64_t N = 0;
    walkLogInt(Min, Max, [&N](int64_t) { return ++N, true; });
    return N;
  }
  case ParamKind::FloatRange:
  case ParamKind::LogFloat:
    return 1000; // nominal discretization
  case ParamKind::Permutation:
    return factorial(PermSize);
  }
  return 1;
}

bool ParamDef::indexed() const {
  return Kind != ParamKind::FloatRange && Kind != ParamKind::LogFloat &&
         Kind != ParamKind::Permutation;
}

int64_t ParamDef::valueAt(uint64_t I) const {
  assert(indexed() && I < cardinality() && "value index out of range");
  switch (Kind) {
  case ParamKind::IntRange:
    return Min + static_cast<int64_t>(I);
  case ParamKind::Pow2: {
    int64_t First = firstPow2(Min);
    return First > Max ? std::max<int64_t>(1, Min) : First << I;
  }
  case ParamKind::LogInt: {
    int64_t Out = Min;
    walkLogInt(Min, Max, [&](int64_t V) { return Out = V, I-- != 0; });
    return Out;
  }
  default: // Enum, Bool: the option index
    return static_cast<int64_t>(I);
  }
}

uint64_t ParamDef::indexOf(int64_t X) const {
  if (Kind == ParamKind::IntRange)
    return X >= Min && X <= Max ? static_cast<uint64_t>(X - Min) : 0;
  uint64_t I = 0, N = cardinality();
  if (Kind == ParamKind::LogInt) // one walk: valueAt(I) walks too
    walkLogInt(Min, Max, [&](int64_t V) { return V != X && ++I; });
  else if (Kind == ParamKind::Pow2)
    while (I < N && valueAt(I) != X)
      ++I;
  else // Enum, Bool: the option index
    I = X >= 0 ? static_cast<uint64_t>(X) : N;
  return I < N ? I : 0;
}

ParamIds::ParamIds(std::vector<std::string> IdList) : Ids(std::move(IdList)) {
  KeyOrder.resize(Ids.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    KeyOrder[I] = static_cast<uint32_t>(I);
  std::sort(KeyOrder.begin(), KeyOrder.end(),
            [this](uint32_t A, uint32_t B) { return Ids[A] < Ids[B]; });
}

std::optional<size_t> ParamIds::slot(std::string_view Id) const {
  auto It = std::lower_bound(
      KeyOrder.begin(), KeyOrder.end(), Id,
      [this](uint32_t S, std::string_view K) { return Ids[S] < K; });
  if (It == KeyOrder.end() || Ids[*It] != Id)
    return std::nullopt;
  return *It;
}

Point::Point(const Space &S) : Ids(S.ids()), Values(Ids->Ids.size()) {}

bool Point::laidOutBy(const Space &S) const {
  return Ids ? Ids == S.ids() : S.Params.empty();
}

const PointValue *Point::find(std::string_view Id) const {
  std::optional<size_t> Slot = Ids ? Ids->slot(Id) : std::nullopt;
  return Slot ? &Values[*Slot] : nullptr;
}

void Point::set(const std::string &Id, PointValue V) {
  std::optional<size_t> Slot = Ids ? Ids->slot(Id) : std::nullopt;
  if (!Slot) {
    std::vector<std::string> Grown = Ids ? Ids->Ids : std::vector<std::string>();
    Grown.push_back(Id);
    Ids = std::make_shared<const ParamIds>(std::move(Grown));
    Slot = Values.size();
    Values.emplace_back();
  }
  Values[*Slot] = std::move(V);
}

const PointValue &Point::at(const std::string &Id) const {
  const PointValue *V = find(Id);
  assert(V && "parameter missing from point");
  return *V;
}

std::string Point::key() const {
  std::string Out;
  forEach([&Out](const std::string &Id, const PointValue &V) {
    appendEntry(Out, Id, V);
  });
  return Out;
}

std::string Point::activeKey(const Space &S) const {
  std::shared_ptr<const ParamIds> SpaceIds = S.ids();
  auto Satisfied = [&](const ParamGuard &G) {
    const PointValue *V = find(S.Params[G.Param].Id);
    const int64_t *Arm = V ? std::get_if<int64_t>(V) : nullptr;
    return Arm && *Arm == G.Alt;
  };
  std::string Out;
  forEach([&](const std::string &Id, const PointValue &V) {
    std::optional<size_t> Def = SpaceIds->slot(Id);
    const std::vector<ParamGuard> *Guards =
        Def ? &S.Params[*Def].Guards : nullptr;
    if (!Guards || std::all_of(Guards->begin(), Guards->end(), Satisfied))
      appendEntry(Out, Id, V);
  });
  return Out;
}

const ParamDef *Space::find(const std::string &Id) const {
  for (const ParamDef &P : Params)
    if (P.Id == Id)
      return &P;
  return nullptr;
}

std::shared_ptr<const ParamIds> Space::ids() const {
  std::lock_guard<std::mutex> Held(Cache.Lock);
  if (!Cache.Ids || Cache.Ids->Ids.size() != Params.size()) {
    std::vector<std::string> IdList;
    for (const ParamDef &P : Params)
      IdList.push_back(P.Id);
    Cache.Ids = std::make_shared<const ParamIds>(std::move(IdList));
  }
  return Cache.Ids;
}

uint64_t Space::fullSize() const {
  uint64_t Size = 1;
  for (const ParamDef &P : Params)
    Size = saturatingMul(Size, P.cardinality());
  return Size;
}

uint64_t Space::valueSize() const {
  uint64_t Size = 1;
  for (const ParamDef &P : Params) {
    if (startsWith(P.Label, "or:") || startsWith(P.Label, "opt:"))
      continue;
    Size = saturatingMul(Size, P.cardinality());
  }
  return Size;
}

uint64_t Space::fingerprint() const {
  // Field separators (the 0x1f units below) keep adjacent strings from
  // concatenating into the same byte stream ("ab","c" vs "a","bc").
  uint64_t H = fnv1a("locus-space-v1");
  auto MixStr = [&H](const std::string &S) {
    H = hashCombine(H, fnv1a(S));
    H = hashCombine(H, 0x1f);
  };
  auto MixInt = [&H](uint64_t V) { H = hashCombine(H, V); };
  MixInt(Params.size());
  for (const ParamDef &P : Params) {
    MixStr(P.Id);
    MixStr(P.Label);
    MixInt(static_cast<uint64_t>(P.Kind));
    MixInt(P.Options.size());
    for (const std::string &O : P.Options)
      MixStr(O);
    MixInt(static_cast<uint64_t>(P.Min));
    MixInt(static_cast<uint64_t>(P.Max));
    MixInt(fnv1a(std::to_string(P.FMin)));
    MixInt(fnv1a(std::to_string(P.FMax)));
    MixInt(static_cast<uint64_t>(P.PermSize));
    MixStr(P.DependsOnMaxParam);
    MixStr(P.DependsOnMinParam);
  }
  return H;
}

std::string Space::describe() const {
  std::ostringstream Out;
  for (const ParamDef &P : Params) {
    Out << "  " << P.Id << " (" << P.Label << "): ";
    switch (P.Kind) {
    case ParamKind::Enum: {
      Out << "enum{";
      for (size_t I = 0; I < P.Options.size(); ++I)
        Out << (I ? "," : "") << P.Options[I];
      Out << "}";
      break;
    }
    case ParamKind::Bool:
      Out << "bool";
      break;
    case ParamKind::IntRange:
      Out << "integer(" << P.Min << ".." << P.Max << ")";
      break;
    case ParamKind::Pow2:
      Out << "poweroftwo(" << P.Min << ".." << P.Max << ")";
      break;
    case ParamKind::LogInt:
      Out << "loginteger(" << P.Min << ".." << P.Max << ")";
      break;
    case ParamKind::FloatRange:
      Out << "float(" << P.FMin << ".." << P.FMax << ")";
      break;
    case ParamKind::LogFloat:
      Out << "logfloat(" << P.FMin << ".." << P.FMax << ")";
      break;
    case ParamKind::Permutation:
      Out << "permutation(" << P.PermSize << ")";
      break;
    }
    if (!P.DependsOnMaxParam.empty())
      Out << " [max <= " << P.DependsOnMaxParam << "]";
    Out << " |" << P.cardinality() << "|\n";
  }
  return Out.str();
}

} // namespace search
} // namespace locus
