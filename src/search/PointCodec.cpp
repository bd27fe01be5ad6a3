//===- PointCodec.cpp - Point (de)serialization ---------------------------===//

#include "src/search/PointCodec.h"

#include "src/search/RecordCodec.h"
#include "src/support/StringUtils.h"

#include <sstream>

namespace locus {
namespace search {

std::string serializePoint(const Point &P) {
  std::ostringstream Out;
  for (const auto &[Id, V] : P.Values) {
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
  }
  return Out.str();
}

Expected<Point> deserializePoint(const std::string &Text, const Space &Space) {
  Point P;
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
      P.Values[Id] = I;
    } else if (Tag == 'f') {
      double D = 0;
      if (!parseWhole(Body, D))
        return Expected<Point>::error("malformed float value: " + Line);
      P.Values[Id] = D;
    } else if (Tag == 's') {
      P.Values[Id] = std::string(Body);
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
      P.Values[Id] = std::move(Perm);
    } else {
      return Expected<Point>::error("unknown point value tag: " + Line);
    }
  }
  // Sanity: every space parameter should be pinned.
  for (const ParamDef &Def : Space.Params)
    if (!P.Values.count(Def.Id))
      return Expected<Point>::error("point does not pin " + Def.Id);
  return P;
}

} // namespace search
} // namespace locus
