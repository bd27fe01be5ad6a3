//===- DensePointTest.cpp - Value counts and dense point layouts -----------===//
//
// A parameter's values are an indexed sequence: cardinality() counts them
// (the exhausted-space stop and the "N points" of --discover --tune rely on
// that count being exact), valueAt() and indexOf() walk them by index. A
// point holds its values densely, laid out by the interned ids of its
// space; a point pinning other ids keeps its own layout and still has the
// same text forms.
//
//===----------------------------------------------------------------------===//

#include "src/search/PointCodec.h"
#include "src/search/Search.h"

#include <gtest/gtest.h>

#include <map>

namespace locus {
namespace {

using namespace search;

ParamDef def(ParamKind K, int64_t Min = 0, int64_t Max = 0) {
  ParamDef P;
  P.Id = "p";
  P.Label = "p";
  P.Kind = K;
  P.Min = Min;
  P.Max = Max;
  return P;
}

/// Every kind, with the ranges whose value count used to be approximated.
std::vector<std::pair<std::string, ParamDef>> everyKind() {
  std::vector<std::pair<std::string, ParamDef>> Out;
  ParamDef Enum = def(ParamKind::Enum);
  Enum.Options = {"a", "b", "c"};
  Out.emplace_back("enum(a,b,c)", Enum);
  Out.emplace_back("enum()", def(ParamKind::Enum));
  Out.emplace_back("bool", def(ParamKind::Bool));
  Out.emplace_back("integer(-2..5)", def(ParamKind::IntRange, -2, 5));
  Out.emplace_back("integer(5..2)", def(ParamKind::IntRange, 5, 2));
  Out.emplace_back("poweroftwo(2..512)", def(ParamKind::Pow2, 2, 512));
  Out.emplace_back("poweroftwo(3..32)", def(ParamKind::Pow2, 3, 32));
  Out.emplace_back("poweroftwo(0..8)", def(ParamKind::Pow2, 0, 8));
  Out.emplace_back("poweroftwo(-4..1)", def(ParamKind::Pow2, -4, 1));
  Out.emplace_back("poweroftwo(5..7)", def(ParamKind::Pow2, 5, 7));
  Out.emplace_back("loginteger(1..100)", def(ParamKind::LogInt, 1, 100));
  Out.emplace_back("loginteger(0..20)", def(ParamKind::LogInt, 0, 20));
  Out.emplace_back("loginteger(7..7)", def(ParamKind::LogInt, 7, 7));
  Out.emplace_back("loginteger(9..3)", def(ParamKind::LogInt, 9, 3));
  for (int N : {0, 1, 3, 5}) {
    ParamDef Perm = def(ParamKind::Permutation);
    Perm.PermSize = N;
    Out.emplace_back("permutation(" + std::to_string(N) + ")", Perm);
  }
  return Out;
}

TEST(DensePoint, CardinalityCountsEveryEnumeratedValue) {
  for (const auto &[Name, P] : everyKind())
    EXPECT_EQ(P.cardinality(), enumerateValues(P).size()) << Name;
  // Ranges whose count is not a difference of log2s.
  EXPECT_EQ(def(ParamKind::Pow2, 3, 32).cardinality(), 4u); // 4, 8, 16, 32
  EXPECT_EQ(def(ParamKind::Pow2, 0, 8).cardinality(), 4u);  // 1, 2, 4, 8
  EXPECT_EQ(def(ParamKind::LogInt, 1, 100).cardinality(), 11u);
  // Float ranges keep a nominal count; enumeration is a 16-step sweep.
  ParamDef F = def(ParamKind::FloatRange);
  F.FMax = 1;
  EXPECT_EQ(F.cardinality(), 1000u);
  F.Kind = ParamKind::LogFloat;
  EXPECT_EQ(F.cardinality(), 1000u);
  EXPECT_FALSE(F.indexed());
}

TEST(DensePoint, EnumerationIsUnchanged) {
  // Literal value lists: a change to the value model shows here.
  const std::vector<std::pair<std::string, std::vector<int64_t>>> Want = {
      {"integer(-2..5)", {-2, -1, 0, 1, 2, 3, 4, 5}},
      {"integer(5..2)", {5}},
      {"poweroftwo(2..512)", {2, 4, 8, 16, 32, 64, 128, 256, 512}},
      {"poweroftwo(3..32)", {4, 8, 16, 32}},
      {"poweroftwo(0..8)", {1, 2, 4, 8}},
      {"poweroftwo(-4..1)", {1}},
      {"poweroftwo(5..7)", {5}},
      {"loginteger(1..100)", {1, 2, 3, 4, 6, 10, 15, 22, 34, 51, 76}},
      {"loginteger(0..20)", {1, 2, 3, 4, 6, 10, 15}},
      {"loginteger(7..7)", {7}},
      {"loginteger(9..3)", {9}},
  };
  std::map<std::string, ParamDef> Kinds;
  for (const auto &[Name, P] : everyKind())
    Kinds.emplace(Name, P);
  for (const auto &[Name, Values] : Want) {
    ASSERT_TRUE(Kinds.count(Name)) << Name;
    std::vector<int64_t> Got;
    for (const PointValue &V : enumerateValues(Kinds.at(Name)))
      Got.push_back(std::get<int64_t>(V));
    EXPECT_EQ(Got, Values) << Name;
  }
}

TEST(DensePoint, ValueAtAndIndexOfWalkTheEnumeration) {
  for (const auto &[Name, P] : everyKind()) {
    if (!P.indexed())
      continue;
    std::vector<PointValue> Values = enumerateValues(P);
    for (size_t I = 0; I < Values.size(); ++I) {
      EXPECT_EQ(PointValue(P.valueAt(I)), Values[I]) << Name << " #" << I;
      EXPECT_EQ(P.indexOf(std::get<int64_t>(Values[I])), I) << Name;
    }
    EXPECT_EQ(P.indexOf(1000003), 0u) << Name; // not a value
  }
}

Space smallSpace() {
  Space S;
  ParamDef Sel = def(ParamKind::Enum);
  Sel.Id = "sel";
  Sel.Options = {"a", "b"};
  ParamDef T = def(ParamKind::Pow2, 2, 16);
  T.Id = "t";
  T.Guards = {{0, 1}}; // read only when sel picks b
  ParamDef A = def(ParamKind::IntRange, 0, 3);
  A.Id = "a";
  S.Params = {Sel, T, A};
  return S;
}

TEST(DensePoint, PointsOfASpaceShareItsLayout) {
  Space S = smallSpace();
  Rng R(3);
  Point P = samplePoint(S, R);
  EXPECT_TRUE(P.laidOutBy(S));
  EXPECT_EQ(P.size(), S.Params.size());
  for (size_t I = 0; I < S.Params.size(); ++I)
    EXPECT_EQ(P.find(S.Params[I].Id), &P[I]) << S.Params[I].Id;
  // A copy of the space shares the interned ids; a grown space does not.
  Space Copy = S;
  EXPECT_TRUE(P.laidOutBy(Copy));
  Copy.Params.push_back(def(ParamKind::Bool));
  EXPECT_FALSE(P.laidOutBy(Copy));

  // The text form round-trips onto the space's layout.
  auto Back = deserializePoint(serializePoint(P), S);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(Back->laidOutBy(S));
  EXPECT_EQ(Back->key(), P.key());
}

TEST(DensePoint, ForeignLayoutsKeepTheirTextForms) {
  Space S = smallSpace();
  // Built by id, in another order, with an id the space does not define.
  Point Q;
  Q.set("t", int64_t(4));
  Q.set("extra", std::string("x"));
  Q.set("a", int64_t(2));
  Q.set("sel", int64_t(0));
  EXPECT_FALSE(Q.laidOutBy(S));
  EXPECT_EQ(Q.key(), "a=2;extra=x;sel=0;t=4;");
  // t is inactive under sel=0; a value the space does not define stays.
  EXPECT_EQ(Q.activeKey(S), "a=2;extra=x;sel=0;");
  Q.set("sel", int64_t(1));
  EXPECT_EQ(Q.activeKey(S), Q.key());
  EXPECT_EQ(Q.getInt("t"), 4);
  EXPECT_EQ(Q.find("missing"), nullptr);

  auto Back = deserializePoint(serializePoint(Q), S);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_FALSE(Back->laidOutBy(S));
  EXPECT_EQ(Back->key(), Q.key());

  // The same values laid out by the space give the same text.
  Point D(S);
  D[0] = int64_t(1);
  D[1] = int64_t(4);
  D[2] = int64_t(2);
  D.set("extra", std::string("x"));
  EXPECT_FALSE(D.laidOutBy(S));
  EXPECT_EQ(D.key(), Q.key());
  EXPECT_EQ(D.activeKey(S), Q.activeKey(S));
}

} // namespace
} // namespace locus
