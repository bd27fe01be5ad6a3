//===- ActiveKeyTest.cpp - Selector guards and active projections ---------===//
//
// Extraction records, on every parameter, the OR arms and optional
// statements it sits under; Point::activeKey drops the parameters whose
// guards a point does not satisfy. These tests pin the guards of nested
// constructs, the key's equalities and separations, that two points with
// one active key materialize the same variant, and that the guards leave
// the space's fingerprint and description as they were.
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/locus/Interpreter.h"
#include "src/locus/LocusParser.h"
#include "src/search/Search.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

namespace locus {
namespace search {
void PrintTo(const ParamGuard &G, std::ostream *OS) {
  *OS << "#" << G.Param << "=" << G.Alt;
}
} // namespace search

namespace {

using search::ParamDef;
using search::ParamGuard;
using search::Point;
using search::Space;
using Guards = std::vector<ParamGuard>;

/// A nested OR inside an OR arm, a dependent range inside an arm, and an
/// optional statement.
const char *NestedProgram = R"(
import "RoseLocus";

CodeReg matmul {
  {
    tI = poweroftwo(2..16);
    tJ = poweroftwo(2..tI);
    RoseLocus.Tiling(loop="0", factor=[tI, tJ]);
    {
      u1 = integer(2..4);
      RoseLocus.Unroll(loop=innermost, factor=u1);
    } OR {
      u2 = enum(2, 8);
      RoseLocus.Unroll(loop=innermost, factor=u2);
    }
  } OR {
    order = permutation([0, 1, 2]);
    RoseLocus.Interchange(order=order);
  }
  *RoseLocus.Unroll(loop=innermost, factor=poweroftwo(2..8));
}
)";

struct Extracted {
  std::unique_ptr<lang::LocusProgram> LP;
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  Space S;

  explicit Extracted(const std::string &Locus) {
    auto P = lang::parseLocusProgram(Locus);
    EXPECT_TRUE(P.ok()) << P.message();
    if (!P.ok())
      return;
    LP = std::move(*P);
    auto C = target();
    transform::TransformContext TCtx;
    TCtx.Prog = C.get();
    lang::LocusInterpreter Interp(*LP, Registry);
    lang::ExecOutcome O = Interp.extractSpace(*C, S, TCtx);
    EXPECT_TRUE(O.Ok) << O.Error;
  }

  static std::unique_ptr<cir::Program> target() {
    auto C = cir::parseProgram(workloads::dgemmSource(16, 16, 16));
    EXPECT_TRUE(C.ok()) << C.message();
    return C.ok() ? std::move(*C) : nullptr;
  }

  /// The parameter labelled \p Label (the n-th one for repeated labels).
  const ParamDef &param(const std::string &Label, int N = 0) const {
    for (const ParamDef &P : S.Params)
      if (P.Label.compare(0, Label.size(), Label) == 0 && N-- == 0)
        return P;
    ADD_FAILURE() << "no parameter " << Label << " in\n" << S.describe();
    static const ParamDef None;
    return None;
  }

  /// The index of \p P in the space (what a guard names).
  size_t slot(const ParamDef &P) const {
    return static_cast<size_t>(&P - S.Params.data());
  }

  /// Materializes \p P: the printed variant, or the interpreter's verdict.
  std::string materialize(const Point &P) const {
    auto C = target();
    transform::TransformContext TCtx;
    TCtx.Prog = C.get();
    lang::LocusInterpreter Interp(*LP, Registry);
    lang::ExecOutcome O = Interp.applyPoint(*C, P, TCtx);
    if (!O.Ok)
      return "error: " + O.Error;
    if (O.InvalidPoint)
      return "invalid: " + O.InvalidReason;
    return cir::printProgram(*C);
  }
};

/// A point of \p S: every parameter at its first enumerable value, the
/// permutation at the identity.
Point firstPoint(const Space &S) {
  Point P(S);
  for (size_t I = 0; I < S.Params.size(); ++I) {
    if (S.Params[I].Kind == search::ParamKind::Permutation)
      P[I] = std::vector<int>{0, 1, 2};
    else
      P[I] = search::enumerateValues(S.Params[I])[0];
  }
  return P;
}

TEST(ActiveKey, GuardsRecordTheEnclosingArms) {
  Extracted E(NestedProgram);
  const ParamDef &Outer = E.param("or:line", 0);
  const ParamDef &Inner = E.param("or:line", 1);
  const ParamDef &Opt = E.param("opt:line");
  EXPECT_TRUE(Outer.Guards.empty());
  EXPECT_TRUE(Opt.Guards.empty());

  Guards Arm0 = {{E.slot(Outer), 0}};
  EXPECT_EQ(E.param("tI").Guards, Arm0);
  EXPECT_EQ(E.param("tJ").Guards, Arm0);
  EXPECT_EQ(E.param("tJ").DependsOnMaxParam, E.param("tI").Id);
  EXPECT_EQ(Inner.Guards, Arm0);
  EXPECT_EQ(E.param("u1").Guards, Guards({{E.slot(Outer), 0}, {E.slot(Inner), 0}}));
  EXPECT_EQ(E.param("u2").Guards, Guards({{E.slot(Outer), 0}, {E.slot(Inner), 1}}));
  EXPECT_EQ(E.param("order").Guards, Guards({{E.slot(Outer), 1}}));
  EXPECT_EQ(E.param("poweroftwo:line").Guards, Guards({{E.slot(Opt), 1}}));
}

TEST(ActiveKey, Fig5OrExpressionGuardsTiling2D) {
  Extracted E(workloads::dgemmLocusFig5());
  const ParamDef &Or = E.param("or:tiletype");
  EXPECT_TRUE(Or.Guards.empty());
  EXPECT_EQ(E.param("tileI").Guards, Guards({{E.slot(Or), 0}}));
  EXPECT_EQ(E.param("tileJ").Guards, Guards({{E.slot(Or), 0}}));

  // Tiling3D reads no tile size; Tiling2D reads both.
  Point A = firstPoint(E.S);
  A.set(Or.Id, int64_t(1));
  Point B = A;
  B.set(E.param("tileI").Id, int64_t(16));
  B.set(E.param("tileJ").Id, int64_t(32));
  EXPECT_NE(A.key(), B.key());
  EXPECT_EQ(A.activeKey(E.S), B.activeKey(E.S));
  A.set(Or.Id, int64_t(0));
  B.set(Or.Id, int64_t(0));
  EXPECT_NE(A.activeKey(E.S), B.activeKey(E.S));
  EXPECT_EQ(A.activeKey(E.S), A.key()); // every parameter is active
}

TEST(ActiveKey, OnlyInactiveDifferencesShareAKey) {
  Extracted E(NestedProgram);
  const std::string Outer = E.param("or:line", 0).Id;
  const std::string Inner = E.param("or:line", 1).Id;
  const std::string Opt = E.param("opt:line").Id;
  const std::string OptFactor = E.param("poweroftwo:line").Id;
  const std::string TI = E.param("tI").Id, TJ = E.param("tJ").Id;
  const std::string U1 = E.param("u1").Id, U2 = E.param("u2").Id;
  const std::string Order = E.param("order").Id;

  auto SameKey = [&](const Point &A, const Point &B) {
    return A.activeKey(E.S) == B.activeKey(E.S);
  };
  auto With = [](Point P, const std::string &Id, search::PointValue V) {
    P.set(Id, std::move(V));
    return P;
  };

  // The interchange arm, optional statement off: only the outer selector,
  // the permutation and the optional's own switch are read.
  Point P = With(With(firstPoint(E.S), Outer, int64_t(1)), Opt, int64_t(0));
  EXPECT_TRUE(SameKey(P, With(P, TI, int64_t(16))));
  EXPECT_TRUE(SameKey(P, With(P, TJ, int64_t(8))));
  EXPECT_TRUE(SameKey(P, With(P, Inner, int64_t(1))));
  EXPECT_TRUE(SameKey(P, With(P, U1, int64_t(3))));
  EXPECT_TRUE(SameKey(P, With(P, U2, int64_t(1))));
  EXPECT_TRUE(SameKey(P, With(P, OptFactor, int64_t(8))));
  EXPECT_FALSE(SameKey(P, With(P, Order, std::vector<int>{2, 1, 0})));
  EXPECT_FALSE(SameKey(P, With(P, Outer, int64_t(0))));
  EXPECT_FALSE(SameKey(P, With(P, Opt, int64_t(1))));

  // The tiling arm with its second unroll: u1 and the permutation are dead,
  // the dependent tJ and u2 are live.
  Point Q = With(With(P, Outer, int64_t(0)), Inner, int64_t(1));
  EXPECT_TRUE(SameKey(Q, With(Q, U1, int64_t(4))));
  EXPECT_TRUE(SameKey(Q, With(Q, Order, std::vector<int>{1, 0, 2})));
  EXPECT_FALSE(SameKey(Q, With(Q, U2, int64_t(1))));
  EXPECT_FALSE(SameKey(Q, With(Q, TI, int64_t(4))));
  EXPECT_FALSE(SameKey(Q, With(Q, TJ, int64_t(4))));

  // The optional statement switched on reads its factor.
  Point R = With(Q, Opt, int64_t(1));
  EXPECT_FALSE(SameKey(R, With(R, OptFactor, int64_t(8))));

  // A value the space does not define is kept.
  EXPECT_FALSE(SameKey(P, With(P, "elsewhere/#1", int64_t(0))));
}

TEST(ActiveKey, OneActiveKeyMaterializesOneVariant) {
  // Soundness: any two points that share an active key materialize the
  // same program (or the same rejection). Sampled, so the groups mix
  // points that differ in every inactive parameter.
  for (const std::string &Locus :
       {std::string(NestedProgram), workloads::dgemmLocusFig5()}) {
    Extracted E(Locus);
    Rng R(11);
    std::map<std::string, std::string> ByKey;
    int Shared = 0;
    for (int I = 0; I < 60; ++I) {
      Point P = search::samplePoint(E.S, R);
      std::string Variant = E.materialize(P);
      auto [It, Fresh] = ByKey.try_emplace(P.activeKey(E.S), Variant);
      if (!Fresh) {
        ++Shared;
        EXPECT_EQ(It->second, Variant) << P.key();
      }
    }
    EXPECT_GT(Shared, 0) << "no two sampled points shared an active key";
  }
}

TEST(ActiveKey, GuardsLeaveFingerprintAndDescriptionUnchanged) {
  for (const std::string &Locus :
       {std::string(NestedProgram), workloads::dgemmLocusFig5(),
        workloads::dgemmLocusFig7(32)}) {
    Extracted E(Locus);
    Space Unguarded = E.S;
    for (ParamDef &D : Unguarded.Params)
      D.Guards.clear();
    EXPECT_EQ(E.S.fingerprint(), Unguarded.fingerprint());
    EXPECT_EQ(E.S.describe(), Unguarded.describe());
  }
  // The Fig. 5 space's fingerprint, as journals and queue dirs written
  // before parameters carried guards recorded it.
  EXPECT_EQ(Extracted(workloads::dgemmLocusFig5()).S.fingerprint(),
            0x0f0979b507b2ae79ULL);
}

} // namespace
} // namespace locus
