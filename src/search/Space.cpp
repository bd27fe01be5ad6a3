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

int log2FloorPositive(int64_t X) {
  int L = 0;
  while (X > 1) {
    X >>= 1;
    ++L;
  }
  return L;
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
    return Max < Min ? 1 : static_cast<uint64_t>(Max - Min + 1);
  case ParamKind::Pow2: {
    if (Max < Min || Min < 1)
      return 1;
    return static_cast<uint64_t>(log2FloorPositive(Max) -
                                 log2FloorPositive(Min) + 1);
  }
  case ParamKind::LogInt: {
    // Log-spaced candidates: powers-of-two density approximation.
    if (Max < Min || Min < 1)
      return 1;
    return static_cast<uint64_t>(log2FloorPositive(Max) -
                                 log2FloorPositive(Min) + 1) *
           2;
  }
  case ParamKind::FloatRange:
  case ParamKind::LogFloat:
    return 1000; // nominal discretization
  case ParamKind::Permutation:
    return factorial(PermSize);
  }
  return 1;
}

int64_t Point::getInt(const std::string &Id) const {
  auto It = Values.find(Id);
  assert(It != Values.end() && "parameter missing from point");
  return std::get<int64_t>(It->second);
}

double Point::getFloat(const std::string &Id) const {
  auto It = Values.find(Id);
  assert(It != Values.end() && "parameter missing from point");
  if (const auto *I = std::get_if<int64_t>(&It->second))
    return static_cast<double>(*I);
  return std::get<double>(It->second);
}

const std::string &Point::getString(const std::string &Id) const {
  auto It = Values.find(Id);
  assert(It != Values.end() && "parameter missing from point");
  return std::get<std::string>(It->second);
}

const std::vector<int> &Point::getPerm(const std::string &Id) const {
  auto It = Values.find(Id);
  assert(It != Values.end() && "parameter missing from point");
  return std::get<std::vector<int>>(It->second);
}

std::string Point::key() const {
  std::string Out;
  for (const auto &[Id, V] : Values)
    appendEntry(Out, Id, V);
  return Out;
}

std::string Point::activeKey(const Space &S) const {
  auto Satisfied = [this](const ParamGuard &G) {
    auto It = Values.find(G.ParamId);
    const int64_t *Arm =
        It == Values.end() ? nullptr : std::get_if<int64_t>(&It->second);
    return Arm && *Arm == G.Alt;
  };
  std::string Out;
  for (const auto &[Id, V] : Values) {
    const ParamDef *D = S.find(Id);
    if (D && !std::all_of(D->Guards.begin(), D->Guards.end(), Satisfied))
      continue;
    appendEntry(Out, Id, V);
  }
  return Out;
}

const ParamDef *Space::find(const std::string &Id) const {
  for (const ParamDef &P : Params)
    if (P.Id == Id)
      return &P;
  return nullptr;
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
