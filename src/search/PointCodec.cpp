//===- PointCodec.cpp - Point (de)serialization ---------------------------===//

#include "src/search/PointCodec.h"

#include "src/search/RecordCodec.h"
#include "src/support/StringUtils.h"

#include <sstream>

namespace locus {
namespace search {

std::string serializePoint(const Point &P) {
  std::ostringstream Out;
  P.forEach([&Out](const std::string &Id, const PointValue &V) {
    Out << Id << " = ";
    if (const auto *I = std::get_if<int64_t>(&V))
      Out << "i:" << *I;
    else if (const auto *D = std::get_if<double>(&V))
      Out << "f:" << formatDouble(*D);
    else if (const auto *S = std::get_if<std::string>(&V))
      Out << "s:" << *S;
    else if (const auto *Perm = std::get_if<std::vector<int>>(&V)) {
      Out << "p:";
      for (size_t I = 0; I < Perm->size(); ++I)
        Out << (I ? "," : "") << (*Perm)[I];
    }
    Out << "\n";
  });
  return Out.str();
}

Expected<Point> deserializePoint(const std::string &Text, const Space &Space) {
  std::vector<std::pair<std::string, PointValue>> Pinned;
  for (const std::string &Line : splitString(Text, '\n')) {
    std::string_view Trimmed = trimString(Line);
    if (Trimmed.empty())
      continue;
    size_t Eq = Trimmed.find(" = ");
    if (Eq == std::string_view::npos)
      return Expected<Point>::error("malformed point line: " + Line);
    std::string Id(Trimmed.substr(0, Eq));
    std::string_view Rest = Trimmed.substr(Eq + 3);
    if (Rest.size() < 2 || Rest[1] != ':')
      return Expected<Point>::error("malformed point value: " + Line);
    char Tag = Rest[0];
    std::string_view Body = Rest.substr(2);
    if (Tag == 'i') {
      int64_t I = 0;
      if (!parseWhole(Body, I))
        return Expected<Point>::error("malformed integer value: " + Line);
      Pinned.emplace_back(std::move(Id), I);
    } else if (Tag == 'f') {
      double D = 0;
      if (!parseWhole(Body, D))
        return Expected<Point>::error("malformed float value: " + Line);
      Pinned.emplace_back(std::move(Id), D);
    } else if (Tag == 's') {
      Pinned.emplace_back(std::move(Id), std::string(Body));
    } else if (Tag == 'p') {
      std::vector<int> Perm;
      for (const std::string &Part : splitString(Body, ',')) {
        if (Part.empty())
          continue;
        int64_t Entry = 0;
        if (!parseWhole(Part, Entry))
          return Expected<Point>::error("malformed permutation entry '" +
                                        Part + "': " + Line);
        Perm.push_back(static_cast<int>(Entry));
      }
      Pinned.emplace_back(std::move(Id), std::move(Perm));
    } else {
      return Expected<Point>::error("unknown point value tag: " + Line);
    }
  }
  // A point pinning exactly the space's ids is laid out by the space; any
  // other (a repeated line, an extra id) keeps its ids, the last line
  // winning.
  std::shared_ptr<const ParamIds> Ids = Space.ids();
  std::vector<size_t> Slots;
  std::vector<bool> Hit(Space.Params.size());
  for (const auto &[Id, V] : Pinned) {
    std::optional<size_t> Slot = Ids->slot(Id);
    if (!Slot || Hit[*Slot])
      break;
    Hit[*Slot] = true;
    Slots.push_back(*Slot);
  }
  Point P;
  if (Slots.size() == Space.Params.size() && Slots.size() == Pinned.size()) {
    P = Point(Space);
    for (size_t I = 0; I < Slots.size(); ++I)
      P[Slots[I]] = std::move(Pinned[I].second);
  } else {
    for (auto &[Id, V] : Pinned)
      P.set(Id, std::move(V));
  }
  // Sanity: every space parameter should be pinned.
  for (const ParamDef &Def : Space.Params)
    if (!P.find(Def.Id))
      return Expected<Point>::error("point does not pin " + Def.Id);
  return P;
}

} // namespace search
} // namespace locus
