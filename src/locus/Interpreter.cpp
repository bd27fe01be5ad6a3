//===- Interpreter.cpp - Locus program interpreter -----------------------------===//

#include "src/locus/Interpreter.h"

#include "src/analysis/Verifier.h"
#include "src/support/Diag.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace locus {
namespace lang {

namespace {

/// Exponent helpers for poweroftwo parameters.
bool isPow2(int64_t X) { return X > 0 && (X & (X - 1)) == 0; }

/// Modules that must preserve the number of executed assignment instances
/// (the verifier's statement-instance accounting only applies to these;
/// LICM/ScalarRepl/Altdesc legitimately change the count).
bool preservesInstanceCounts(const std::string &Member) {
  static const std::set<std::string> Preserving = {
      "Tiling", "GenericTiling", "Interchange", "Unroll",
      "UnrollAndJam", "Fusion", "Distribute"};
  return Preserving.count(Member) != 0;
}

/// Converts a Locus value into a symbolic plan argument; Unknown for value
/// kinds the oracle cannot resolve (dicts, None).
analysis::PlanArg planArgFromValue(const Value &V) {
  using analysis::PlanArg;
  switch (V.kind()) {
  case Value::Kind::Int:
    return PlanArg::ofInt(V.asInt());
  case Value::Kind::Float:
    return PlanArg::ofFloat(V.asFloat());
  case Value::Kind::String:
    return PlanArg::ofStr(V.asString());
  case Value::Kind::Param:
    return PlanArg::ofParam(V.paramId());
  case Value::Kind::List:
  case Value::Kind::Tuple: {
    std::vector<Value> Copy;
    const std::vector<Value> *Items;
    if (V.isList()) {
      Copy = *V.asList();
      Items = &Copy;
    } else {
      Items = &V.asTuple();
    }
    std::vector<PlanArg> Out;
    for (const Value &I : *Items) {
      PlanArg A = planArgFromValue(I);
      if (!A.resolvable())
        return PlanArg::unknown();
      Out.push_back(std::move(A));
    }
    return PlanArg::ofList(std::move(Out));
  }
  default:
    return PlanArg::unknown();
  }
}

//===----------------------------------------------------------------------===//
// Execution engine
//===----------------------------------------------------------------------===//

enum class Mode { Extract, Concrete };

enum class Flow { Normal, Return };

class Engine {
public:
  Engine(const LocusProgram &LProg, const ModuleRegistry &Registry, Mode M,
         search::Space *SpaceOut, const search::Point *Point,
         cir::Program *Target, transform::TransformContext *TCtx,
         analysis::TransformPlan *Plan = nullptr)
      : LProg(LProg), Registry(Registry), M(M), SpaceOut(SpaceOut),
        Point(Point), Target(Target), TCtx(TCtx), Plan(Plan) {}

  ExecOutcome run() {
    Outcome = ExecOutcome::ok();
    GlobalScope.clear();
    GlobalScope["innermost"] = Value(std::string("innermost"));
    GlobalScope["outermost"] = Value(std::string("outermost"));
    GlobalScope["True"] = Value::boolean(true);
    GlobalScope["False"] = Value::boolean(false);

    // Global-scope statements run first (e.g. Fig. 11's datalayout enum).
    PathStack.assign(1, "global");
    {
      Value Ret;
      execBlock(LProg.GlobalStmts, GlobalScope, Ret);
    }
    if (halted()) {
      Outcome.Ok = Err.empty();
      Outcome.Error = Err;
      return Outcome;
    }

    for (const auto &[Name, Body] : LProg.CodeRegs) {
      std::vector<cir::Block *> Regions = Target->findRegions(Name);
      if (Regions.empty()) {
        Outcome.Log.push_back("warning: no code region named '" + Name + "'");
        continue;
      }
      if (Plan && M == Mode::Extract)
        Plan->CodeRegOrder.push_back(Name);
      size_t Count = M == Mode::Extract ? 1 : Regions.size();
      for (size_t R = 0; R < Count && !halted(); ++R) {
        Region = Regions[R];
        CurCodeReg = Name;
        PathStack.assign(1, Name);
        std::map<std::string, Value> Locals = GlobalScope;
        Value Ret;
        execBlock(Body, Locals, Ret);
        GlobalScope = std::move(Locals); // Section III scope rules: CodeReg
                                         // bodies see and update globals
      }
      Region = nullptr;
      CurCodeReg.clear();
      if (halted())
        break;
    }
    Outcome.Ok = Err.empty();
    Outcome.Error = Err;
    return Outcome;
  }

private:
  bool halted() const { return !Err.empty() || Outcome.InvalidPoint; }

  void fail(int Line, const std::string &Message) {
    if (Err.empty())
      Err = "locus line " + std::to_string(Line) + ": " + Message;
  }

  void invalidate(const std::string &Reason, bool IllegalTransform = false) {
    if (!Outcome.InvalidPoint) {
      Outcome.InvalidPoint = true;
      Outcome.InvalidReason = Reason;
      Outcome.IllegalTransform = IllegalTransform;
    }
  }

  //===--------------------------------------------------------------------===//
  // Parameter identity
  //===--------------------------------------------------------------------===//

  std::string paramId(int NodeId) const {
    std::string Id;
    for (const std::string &P : PathStack)
      Id += P + "/";
    Id += "#" + std::to_string(NodeId);
    return Id;
  }

  /// Adds Def to the space, guarded by the selector arms being walked. A
  /// parameter reached again under other guards keeps only the guards the
  /// two paths share, so it stays active wherever either path runs.
  /// Returns the parameter's index in Params.
  size_t registerParam(search::ParamDef Def) {
    assert(SpaceOut && "registerParam outside extract mode");
    std::vector<search::ParamDef> &Params = SpaceOut->Params;
    for (size_t I = 0; I < Params.size(); ++I) {
      search::ParamDef &P = Params[I];
      if (P.Id != Def.Id)
        continue;
      size_t Shared = 0;
      while (Shared < P.Guards.size() && Shared < GuardStack.size() &&
             P.Guards[Shared] == GuardStack[Shared])
        ++Shared;
      P.Guards.resize(Shared);
      return I;
    }
    Def.Guards = GuardStack;
    Params.push_back(std::move(Def));
    return Params.size() - 1;
  }

  const search::ParamDef *findParam(const std::string &Id) const {
    if (SpaceOut)
      return SpaceOut->find(Id);
    return nullptr;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  Flow execBlock(const LBlock &Block, std::map<std::string, Value> &Env,
                 Value &Ret) {
    for (const LStmtPtr &S : Block.Stmts) {
      if (halted())
        return Flow::Normal;
      Flow F = execStmt(*S, Env, Ret);
      if (F == Flow::Return)
        return F;
    }
    return Flow::Normal;
  }

  Flow execStmt(const LStmt &S, std::map<std::string, Value> &Env, Value &Ret) {
    switch (S.Kind) {
    case LStmtKind::Block:
      return execBlock(S.Blocks[0], Env, Ret);

    case LStmtKind::OrBlocks: {
      std::string Id = paramId(S.NodeId);
      if (M == Mode::Extract) {
        search::ParamDef Def;
        Def.Id = Id;
        Def.Label = "or:line" + std::to_string(S.Line);
        Def.Kind = search::ParamKind::Enum;
        for (size_t I = 0; I < S.Blocks.size(); ++I)
          Def.Options.push_back("alt" + std::to_string(I));
        size_t Sel = registerParam(std::move(Def));
        // Walk every alternative to collect nested constructs.
        for (size_t I = 0; I < S.Blocks.size(); ++I) {
          PathStack.push_back("alt" + std::to_string(I));
          GuardStack.push_back({Sel, static_cast<int64_t>(I)});
          Value Ignored;
          execBlock(S.Blocks[I], Env, Ignored);
          GuardStack.pop_back();
          PathStack.pop_back();
          if (halted())
            break;
        }
        return Flow::Normal;
      }
      const search::PointValue *It = Point->find(Id);
      if (!It) {
        fail(S.Line, "point does not pin OR block " + Id);
        return Flow::Normal;
      }
      size_t Choice = static_cast<size_t>(std::get<int64_t>(*It));
      if (Choice >= S.Blocks.size()) {
        fail(S.Line, "OR block selector out of range");
        return Flow::Normal;
      }
      PathStack.push_back("alt" + std::to_string(Choice));
      Flow F = execBlock(S.Blocks[Choice], Env, Ret);
      PathStack.pop_back();
      return F;
    }

    case LStmtKind::ExprStmt: {
      if (S.Optional) {
        std::string Id = paramId(S.NodeId);
        if (M == Mode::Extract) {
          search::ParamDef Def;
          Def.Id = Id;
          Def.Label = "opt:line" + std::to_string(S.Line);
          Def.Kind = search::ParamKind::Bool;
          size_t Sel = registerParam(std::move(Def));
          GuardStack.push_back({Sel, 1}); // executes only when pinned on
          evalExpr(*S.Expr, Env);        // walk for nested constructs
          GuardStack.pop_back();
          return Flow::Normal;
        }
        const search::PointValue *It = Point->find(Id);
        if (!It) {
          fail(S.Line, "point does not pin optional statement " + Id);
          return Flow::Normal;
        }
        if (std::get<int64_t>(*It) == 0)
          return Flow::Normal; // the None alternative
      }
      evalExpr(*S.Expr, Env);
      return Flow::Normal;
    }

    case LStmtKind::Assign: {
      CurrentTarget = S.Targets.size() == 1 ? S.Targets[0] : "";
      bool Track = Plan && M == Mode::Extract;
      std::pair<bool, bool> Saved;
      if (Track)
        Saved = beginTaintScope();
      Value V = evalExpr(*S.Rhs, Env);
      bool RhsDiverges = Track && endTaintScope(Saved);
      CurrentTarget.clear();
      if (halted())
        return Flow::Normal;
      if (Track) {
        // The variable's symbolic value is trusted only when the RHS cannot
        // diverge between extraction and a concrete run.
        bool Unusable = RhsDiverges || UnknownDepth > 0 ||
                        !resolvePlanArg(*S.Rhs, V).resolvable();
        for (const std::string &T : S.Targets)
          VarCtx[T] = VarInfo{GuardStack, Unusable};
      }
      if (S.Targets.size() == 1) {
        Env[S.Targets[0]] = std::move(V);
        return Flow::Normal;
      }
      // Tuple unpacking.
      const std::vector<Value> *Items = nullptr;
      std::vector<Value> ListCopy;
      if (V.isTuple())
        Items = &V.asTuple();
      else if (V.isList()) {
        ListCopy = *V.asList();
        Items = &ListCopy;
      }
      if (!Items || Items->size() != S.Targets.size()) {
        fail(S.Line, "cannot unpack value into " +
                         std::to_string(S.Targets.size()) + " targets");
        return Flow::Normal;
      }
      for (size_t I = 0; I < S.Targets.size(); ++I)
        Env[S.Targets[I]] = (*Items)[I];
      return Flow::Normal;
    }

    case LStmtKind::If: {
      for (size_t I = 0; I < S.Conds.size(); ++I) {
        Value C = evalCond(*S.Conds[I], Env);
        if (halted())
          return Flow::Normal;
        if (C.isParam() || C.containsParam()) {
          // Conditional space: in extract mode walk every arm; a concrete
          // run can never see a param value.
          if (M != Mode::Extract) {
            fail(S.Line, "unresolved search value in condition");
            return Flow::Normal;
          }
          ++UnknownDepth;
          for (size_t J = I; J < S.Conds.size(); ++J) {
            Value Ignored;
            execBlock(S.Blocks[J], Env, Ignored);
            if (J + 1 < S.Conds.size())
              evalCond(*S.Conds[J + 1], Env);
          }
          if (S.HasElse) {
            Value Ignored;
            execBlock(S.ElseBlock, Env, Ignored);
          }
          --UnknownDepth;
          return Flow::Normal;
        }
        if (C.truthy())
          return execBlock(S.Blocks[I], Env, Ret);
      }
      if (S.HasElse)
        return execBlock(S.ElseBlock, Env, Ret);
      return Flow::Normal;
    }

    case LStmtKind::While: {
      int Guard = 0;
      while (true) {
        Value C = evalCond(*S.Conds[0], Env);
        if (halted())
          return Flow::Normal;
        if (C.isParam() || C.containsParam()) {
          if (M != Mode::Extract) {
            fail(S.Line, "unresolved search value in while condition");
            return Flow::Normal;
          }
          Value Ignored;
          ++UnknownDepth;
          execBlock(S.Blocks[0], Env, Ignored);
          --UnknownDepth;
          return Flow::Normal;
        }
        if (!C.truthy())
          return Flow::Normal;
        PathStack.push_back("w" + std::to_string(Guard));
        Flow F = execBlock(S.Blocks[0], Env, Ret);
        PathStack.pop_back();
        if (F == Flow::Return)
          return F;
        if (++Guard > 100000) {
          fail(S.Line, "while loop exceeded the iteration guard");
          return Flow::Normal;
        }
      }
    }

    case LStmtKind::For: {
      Value Ignored;
      execStmt(*S.ForInit, Env, Ignored);
      int Guard = 0;
      while (true) {
        if (halted())
          return Flow::Normal;
        Value C = evalCond(*S.Conds[0], Env);
        if (halted())
          return Flow::Normal;
        if (C.isParam() || C.containsParam()) {
          if (M != Mode::Extract) {
            fail(S.Line, "unresolved search value in for condition");
            return Flow::Normal;
          }
          ++UnknownDepth;
          execBlock(S.Blocks[0], Env, Ignored);
          --UnknownDepth;
          return Flow::Normal;
        }
        if (!C.truthy())
          return Flow::Normal;
        PathStack.push_back("i" + std::to_string(Guard));
        Flow F = execBlock(S.Blocks[0], Env, Ret);
        PathStack.pop_back();
        if (F == Flow::Return)
          return F;
        execStmt(*S.ForStep, Env, Ignored);
        if (++Guard > 100000) {
          fail(S.Line, "for loop exceeded the iteration guard");
          return Flow::Normal;
        }
      }
    }

    case LStmtKind::Return: {
      Ret = S.Expr ? evalExpr(*S.Expr, Env) : Value::none();
      return Flow::Return;
    }

    case LStmtKind::Print: {
      Value V = evalExpr(*S.Expr, Env);
      if (!halted())
        Outcome.Log.push_back(V.str());
      return Flow::Normal;
    }
    }
    return Flow::Normal;
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  Value evalExpr(const LExpr &E, std::map<std::string, Value> &Env) {
    switch (E.Kind) {
    case LExprKind::Lit:
      return E.Literal;

    case LExprKind::Name: {
      auto It = Env.find(E.Name);
      if (It != Env.end()) {
        if (Plan && M == Mode::Extract && !nameUsable(E.Name))
          TaintedEval = true;
        return It->second;
      }
      if (Registry.hasModule(E.Name) || LProg.findOptSeq(E.Name) ||
          LProg.findDef(E.Name) || LProg.findQuery(E.Name))
        return Value(E.Name); // resolves at the call site
      fail(E.Line, "undefined name '" + E.Name + "'");
      return Value::none();
    }

    case LExprKind::Attr:
      // Only meaningful as a call target; represent as "Module.Member".
      if (E.Base->Kind == LExprKind::Name &&
          Registry.hasModule(E.Base->Name))
        return Value(E.Base->Name + "." + E.Name);
      fail(E.Line, "unknown module '" +
                       (E.Base->Kind == LExprKind::Name ? E.Base->Name : "?") +
                       "'");
      return Value::none();

    case LExprKind::Call:
      return evalCall(E, Env);

    case LExprKind::Index: {
      Value Base = evalExpr(*E.Base, Env);
      Value Sub = evalExpr(*E.Sub, Env);
      if (halted())
        return Value::none();
      if (Base.containsParam() || Sub.containsParam())
        return Base.containsParam() ? Base : Sub;
      if (Base.isList() || Base.isTuple()) {
        const std::vector<Value> &Items =
            Base.isList() ? *Base.asList() : Base.asTuple();
        if (!Sub.isInt() || Sub.asInt() < 0 ||
            static_cast<size_t>(Sub.asInt()) >= Items.size()) {
          fail(E.Line, "index out of range");
          return Value::none();
        }
        return Items[static_cast<size_t>(Sub.asInt())];
      }
      if (Base.isDict()) {
        auto It = Base.asDict()->find(Sub.str());
        if (It == Base.asDict()->end()) {
          fail(E.Line, "missing dictionary key: " + Sub.str());
          return Value::none();
        }
        return It->second;
      }
      fail(E.Line, "value is not subscriptable");
      return Value::none();
    }

    case LExprKind::Binary: {
      bool TrackShort =
          Plan && M == Mode::Extract && (E.Op == "&&" || E.Op == "||");
      std::pair<bool, bool> SavedShort;
      if (TrackShort)
        SavedShort = beginTaintScope();
      Value L = evalExpr(*E.Lhs, Env);
      bool LDiverges = TrackShort && endTaintScope(SavedShort);
      if (halted())
        return Value::none();
      // Short-circuit logic.
      if (E.Op == "&&" || E.Op == "||") {
        if (L.isParam() || L.containsParam()) {
          // The right operand is not walked, but a concrete run evaluates
          // it; a call hiding there could mutate state the plan misses.
          if (recordingPlan() && exprContainsCall(*E.Rhs))
            PlanBarrier = true;
          return L;
        }
        if (E.Op == "&&" && !L.truthy()) {
          // Short-circuiting on a possibly-diverging value: the concrete
          // run may evaluate the right operand this walk skips.
          if (recordingPlan() && LDiverges && exprContainsCall(*E.Rhs))
            PlanBarrier = true;
          return Value::boolean(false);
        }
        if (E.Op == "||" && L.truthy()) {
          if (recordingPlan() && LDiverges && exprContainsCall(*E.Rhs))
            PlanBarrier = true;
          return Value::boolean(true);
        }
        Value R = evalExpr(*E.Rhs, Env);
        if (R.isParam() || R.containsParam())
          return R;
        return Value::boolean(R.truthy());
      }
      Value R = evalExpr(*E.Rhs, Env);
      if (halted())
        return Value::none();
      Expected<Value> Result = Value::none();
      if (E.Op == "+")
        Result = valueAdd(L, R);
      else if (E.Op == "-")
        Result = valueSub(L, R);
      else if (E.Op == "*")
        Result = valueMul(L, R);
      else if (E.Op == "/")
        Result = valueDiv(L, R);
      else if (E.Op == "%")
        Result = valueMod(L, R);
      else if (E.Op == "**")
        Result = valuePow(L, R);
      else
        Result = valueCompare(E.Op, L, R);
      if (!Result.ok()) {
        fail(E.Line, Result.message());
        return Value::none();
      }
      return *Result;
    }

    case LExprKind::Unary: {
      Value V = evalExpr(*E.Lhs, Env);
      if (halted())
        return Value::none();
      if (V.isParam() || V.containsParam())
        return V;
      if (E.Op == "-") {
        if (V.isInt())
          return Value(-V.asInt());
        if (V.isFloat())
          return Value(-V.asFloat());
        fail(E.Line, "cannot negate " + V.str());
        return Value::none();
      }
      return Value::boolean(!V.truthy());
    }

    case LExprKind::ListMaker: {
      std::vector<Value> Items;
      for (const LExprPtr &I : E.Items) {
        Items.push_back(evalExpr(*I, Env));
        if (halted())
          return Value::none();
      }
      return Value::list(std::move(Items));
    }

    case LExprKind::TupleMaker: {
      std::vector<Value> Items;
      for (const LExprPtr &I : E.Items) {
        Items.push_back(evalExpr(*I, Env));
        if (halted())
          return Value::none();
      }
      return Value::tuple(std::move(Items));
    }

    case LExprKind::DictMaker:
      return Value::dict();

    case LExprKind::Range: {
      // A bare range evaluates to the (lo, hi[, step]) tuple; search calls
      // interpret their range arguments directly.
      std::vector<Value> Items;
      Items.push_back(evalExpr(*E.RangeLo, Env));
      Items.push_back(evalExpr(*E.RangeHi, Env));
      if (E.RangeStep)
        Items.push_back(evalExpr(*E.RangeStep, Env));
      return Value::tuple(std::move(Items));
    }

    case LExprKind::OrExpr:
      return evalOrExpr(E, Env);

    case LExprKind::SearchCall:
      return evalSearchCall(E, Env);
    }
    return Value::none();
  }

  Value evalOrExpr(const LExpr &E, std::map<std::string, Value> &Env) {
    std::string Id = paramId(E.NodeId);
    if (M == Mode::Extract) {
      search::ParamDef Def;
      Def.Id = Id;
      Def.Label = (CurrentTarget.empty() ? "or" : CurrentTarget) + ":line" +
                  std::to_string(E.Line);
      if (!CurrentTarget.empty())
        Def.Label = "or:" + CurrentTarget;
      Def.Kind = search::ParamKind::Enum;
      for (size_t I = 0; I < E.Items.size(); ++I)
        Def.Options.push_back("alt" + std::to_string(I));
      size_t Sel = registerParam(std::move(Def));
      std::vector<analysis::PlanArg> AltValues;
      bool AltsResolved = Plan != nullptr;
      for (size_t I = 0; I < E.Items.size(); ++I) {
        PathStack.push_back("alt" + std::to_string(I));
        GuardStack.push_back({Sel, static_cast<int64_t>(I)});
        std::pair<bool, bool> Saved;
        if (Plan)
          Saved = beginTaintScope();
        Value V = evalExpr(*E.Items[I], Env);
        if (Plan) {
          bool Diverges = endTaintScope(Saved);
          analysis::PlanArg A = Diverges ? analysis::PlanArg::unknown()
                                         : resolvePlanArg(*E.Items[I], V);
          if (A.resolvable())
            AltValues.push_back(std::move(A));
          else
            AltsResolved = false;
        }
        GuardStack.pop_back();
        PathStack.pop_back();
        if (halted())
          break;
      }
      if (AltsResolved && AltValues.size() == E.Items.size())
        Plan->EnumValues[Id] = std::move(AltValues);
      return Value::param(Id);
    }
    const search::PointValue *It = Point->find(Id);
    if (!It) {
      fail(E.Line, "point does not pin OR statement " + Id);
      return Value::none();
    }
    size_t Choice = static_cast<size_t>(std::get<int64_t>(*It));
    if (Choice >= E.Items.size()) {
      fail(E.Line, "OR selector out of range");
      return Value::none();
    }
    PathStack.push_back("alt" + std::to_string(Choice));
    Value V = evalExpr(*E.Items[Choice], Env);
    PathStack.pop_back();
    return V;
  }

  /// Resolves a range bound during extraction: a concrete integer, or the
  /// extreme of a referenced parameter (dependent bounds, Section IV-B).
  bool resolveBound(const Value &V, bool IsMax, int64_t &Out,
                    std::string &DependsOn, int Line) {
    if (V.isInt()) {
      Out = V.asInt();
      return true;
    }
    if (V.isParam()) {
      const search::ParamDef *Dep = findParam(V.paramId());
      if (!Dep) {
        fail(Line, "search variable used before definition");
        return false;
      }
      Out = IsMax ? Dep->Max : Dep->Min;
      DependsOn = V.paramId();
      return true;
    }
    fail(Line, "range bound must be an integer or a search variable");
    return false;
  }

  Value evalSearchCall(const LExpr &E, std::map<std::string, Value> &Env) {
    std::string Id = paramId(E.NodeId);
    std::string Label = CurrentTarget.empty()
                            ? E.Name + ":line" + std::to_string(E.Line)
                            : CurrentTarget;

    // Evaluate the arguments (ranges arrive as Range nodes).
    if (E.Args.empty()) {
      fail(E.Line, E.Name + " requires arguments");
      return Value::none();
    }

    switch (E.SKind) {
    case SearchKind::Enum: {
      bool Track = Plan && M == Mode::Extract;
      std::pair<bool, bool> Saved;
      if (Track)
        Saved = beginTaintScope();
      std::vector<Value> Options;
      for (const LArg &A : E.Args) {
        Options.push_back(evalExpr(*A.Expr, Env));
        if (halted())
          return Value::none();
        if (Options.back().containsParam()) {
          fail(E.Line, "enum options must be concrete values");
          return Value::none();
        }
      }
      bool OptsDiverge = Track && endTaintScope(Saved);
      if (M == Mode::Extract) {
        search::ParamDef Def;
        Def.Id = Id;
        Def.Label = Label;
        Def.Kind = search::ParamKind::Enum;
        for (const Value &O : Options)
          Def.Options.push_back(O.str());
        registerParam(std::move(Def));
        if (Track && !OptsDiverge) {
          // ParamDef::Options only keeps the stringified rendering; the
          // oracle needs the typed values to resolve Param arguments.
          std::vector<analysis::PlanArg> Vals;
          bool AllOk = true;
          for (size_t I = 0; I < Options.size() && AllOk; ++I) {
            analysis::PlanArg A = resolvePlanArg(*E.Args[I].Expr, Options[I]);
            AllOk = A.resolvable();
            Vals.push_back(std::move(A));
          }
          if (AllOk)
            Plan->EnumValues[Id] = std::move(Vals);
        }
        return Value::param(Id);
      }
      const search::PointValue *It = Point->find(Id);
      if (!It) {
        fail(E.Line, "point does not pin enum " + Id);
        return Value::none();
      }
      size_t Choice = static_cast<size_t>(std::get<int64_t>(*It));
      if (Choice >= Options.size()) {
        fail(E.Line, "enum selector out of range");
        return Value::none();
      }
      return Options[Choice];
    }

    case SearchKind::Permutation: {
      Value Arg = evalExpr(*E.Args[0].Expr, Env);
      if (halted())
        return Value::none();
      std::vector<Value> Items;
      if (Arg.isList())
        Items = *Arg.asList();
      else if (Arg.isTuple())
        Items = Arg.asTuple();
      else {
        fail(E.Line, "permutation requires a list argument");
        return Value::none();
      }
      if (M == Mode::Extract) {
        search::ParamDef Def;
        Def.Id = Id;
        Def.Label = Label;
        Def.Kind = search::ParamKind::Permutation;
        Def.PermSize = static_cast<int>(Items.size());
        registerParam(std::move(Def));
        return Value::param(Id);
      }
      const search::PointValue *It = Point->find(Id);
      if (!It) {
        fail(E.Line, "point does not pin permutation " + Id);
        return Value::none();
      }
      const auto &Perm = std::get<std::vector<int>>(*It);
      if (Perm.size() != Items.size()) {
        invalidate("permutation size mismatch for " + Id);
        return Value::none();
      }
      std::vector<Value> Result;
      for (int I : Perm) {
        if (I < 0 || static_cast<size_t>(I) >= Items.size()) {
          invalidate("permutation index out of range for " + Id);
          return Value::none();
        }
        Result.push_back(Items[static_cast<size_t>(I)]);
      }
      return Value::list(std::move(Result));
    }

    case SearchKind::Integer:
    case SearchKind::Pow2:
    case SearchKind::LogInt:
    case SearchKind::Float:
    case SearchKind::LogFloat: {
      const LExpr *RangeE = E.Args[0].Expr.get();
      if (RangeE->Kind != LExprKind::Range) {
        fail(E.Line, E.Name + " requires a lo..hi range argument");
        return Value::none();
      }
      bool Track = Plan && M == Mode::Extract;
      std::pair<bool, bool> Saved;
      if (Track)
        Saved = beginTaintScope();
      Value Lo = evalExpr(*RangeE->RangeLo, Env);
      Value Hi = evalExpr(*RangeE->RangeHi, Env);
      bool BoundsDiverge = Track && endTaintScope(Saved);
      if (halted())
        return Value::none();

      bool IsFloat =
          E.SKind == SearchKind::Float || E.SKind == SearchKind::LogFloat;
      if (M == Mode::Extract) {
        search::ParamDef Def;
        Def.Id = Id;
        Def.Label = Label;
        if (IsFloat) {
          if (!Lo.isNumber() || !Hi.isNumber()) {
            fail(E.Line, "float range bounds must be numbers");
            return Value::none();
          }
          Def.Kind = E.SKind == SearchKind::Float ? search::ParamKind::FloatRange
                                                  : search::ParamKind::LogFloat;
          Def.FMin = Lo.asFloat();
          Def.FMax = Hi.asFloat();
        } else {
          Def.Kind = E.SKind == SearchKind::Integer ? search::ParamKind::IntRange
                     : E.SKind == SearchKind::Pow2  ? search::ParamKind::Pow2
                                                    : search::ParamKind::LogInt;
          if (!resolveBound(Lo, /*IsMax=*/false, Def.Min, Def.DependsOnMinParam,
                            E.Line) ||
              !resolveBound(Hi, /*IsMax=*/true, Def.Max, Def.DependsOnMaxParam,
                            E.Line))
            return Value::none();
        }
        bool Dependent = !Def.DependsOnMinParam.empty() ||
                         !Def.DependsOnMaxParam.empty();
        registerParam(std::move(Def));
        // Record the dynamic dependent-range validation the concrete run
        // will perform (static bounds are honored by every sampler, so only
        // dependent ranges can reject a point).
        if (recordingPlan() && !IsFloat && Dependent && !BoundsDiverge) {
          analysis::PlanEntry PE;
          PE.K = analysis::PlanEntry::Kind::RangeCheck;
          PE.Guards = GuardStack;
          PE.UnderUnknownCond = UnknownDepth > 0;
          PE.ParamId = Id;
          PE.Region = CurCodeReg;
          PE.IsPow2 = E.SKind == SearchKind::Pow2;
          PE.Lo = resolvePlanArg(*RangeE->RangeLo, Lo);
          PE.Hi = resolvePlanArg(*RangeE->RangeHi, Hi);
          if (PE.Lo.resolvable() && PE.Hi.resolvable())
            Plan->Entries.push_back(std::move(PE));
        }
        return Value::param(Id);
      }

      const search::PointValue *It = Point->find(Id);
      if (!It) {
        fail(E.Line, "point does not pin " + E.Name + " " + Id);
        return Value::none();
      }
      if (IsFloat) {
        double V = std::holds_alternative<double>(*It)
                       ? std::get<double>(*It)
                       : static_cast<double>(std::get<int64_t>(*It));
        if (Lo.isNumber() && Hi.isNumber() &&
            (V < Lo.asFloat() || V > Hi.asFloat())) {
          invalidate(Id + " outside its dynamic range");
          return Value::none();
        }
        return Value(V);
      }
      int64_t V = std::get<int64_t>(*It);
      // Dependent-range validity check (Section IV-B): the dynamic bounds
      // are concrete now.
      if (!Lo.isInt() || !Hi.isInt()) {
        fail(E.Line, "range bounds did not resolve to integers");
        return Value::none();
      }
      if (V < Lo.asInt() || V > Hi.asInt()) {
        invalidate(Id + "=" + std::to_string(V) + " violates range " +
                   std::to_string(Lo.asInt()) + ".." +
                   std::to_string(Hi.asInt()));
        return Value::none();
      }
      if (E.SKind == SearchKind::Pow2 && !isPow2(V)) {
        invalidate(Id + "=" + std::to_string(V) + " is not a power of two");
        return Value::none();
      }
      return Value(V);
    }
    }
    return Value::none();
  }

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  Value evalCall(const LExpr &E, std::map<std::string, Value> &Env) {
    // Module member call: Base is an Attr over a module name.
    if (E.Base->Kind == LExprKind::Attr &&
        E.Base->Base->Kind == LExprKind::Name &&
        Registry.hasModule(E.Base->Base->Name))
      return evalModuleCall(E, E.Base->Base->Name, E.Base->Name, Env);

    if (E.Base->Kind != LExprKind::Name) {
      fail(E.Line, "call target is not callable");
      return Value::none();
    }
    const std::string &Name = E.Base->Name;

    // Global built-in helpers.
    if (Name == "seq")
      return evalSeq(E, Env);
    if (Name == "len") {
      if (E.Args.size() != 1) {
        fail(E.Line, "len takes one argument");
        return Value::none();
      }
      Value V = evalExpr(*E.Args[0].Expr, Env);
      if (V.containsParam())
        return V;
      if (V.isList())
        return Value(static_cast<int64_t>(V.asList()->size()));
      if (V.isTuple())
        return Value(static_cast<int64_t>(V.asTuple().size()));
      if (V.isString())
        return Value(static_cast<int64_t>(V.asString().size()));
      fail(E.Line, "len requires a container or string");
      return Value::none();
    }
    if (Name == "str") {
      if (E.Args.size() != 1) {
        fail(E.Line, "str takes one argument");
        return Value::none();
      }
      Value V = evalExpr(*E.Args[0].Expr, Env);
      if (V.containsParam())
        return V;
      return Value(V.str());
    }

    // User functions: OptSeq, Query, def.
    if (const LFunction *F = LProg.findOptSeq(Name))
      return callFunction(*F, E, Env, /*AllowModules=*/true);
    if (const LFunction *F = LProg.findQuery(Name))
      return callFunction(*F, E, Env, /*AllowModules=*/true);
    if (const LFunction *F = LProg.findDef(Name))
      return callFunction(*F, E, Env, /*AllowModules=*/false);

    fail(E.Line, "unknown function '" + Name + "'");
    return Value::none();
  }

  Value evalSeq(const LExpr &E, std::map<std::string, Value> &Env) {
    if (E.Args.size() != 2) {
      fail(E.Line, "seq takes (first, limit)");
      return Value::none();
    }
    Value Lo = evalExpr(*E.Args[0].Expr, Env);
    Value Hi = evalExpr(*E.Args[1].Expr, Env);
    if (Lo.containsParam() || Hi.containsParam())
      return Lo.containsParam() ? Lo : Hi;
    if (!Lo.isInt() || !Hi.isInt()) {
      fail(E.Line, "seq requires integer bounds");
      return Value::none();
    }
    std::vector<Value> Items;
    for (int64_t I = Lo.asInt(); I < Hi.asInt(); ++I)
      Items.push_back(Value(I));
    return Value::list(std::move(Items));
  }

  Value callFunction(const LFunction &F, const LExpr &E,
                     std::map<std::string, Value> &Env, bool AllowModules) {
    if (E.Args.size() != F.Params.size()) {
      fail(E.Line, F.Name + " expects " + std::to_string(F.Params.size()) +
                       " arguments, got " + std::to_string(E.Args.size()));
      return Value::none();
    }
    std::map<std::string, Value> Frame = GlobalScope;
    Frame["innermost"] = Value(std::string("innermost"));
    bool Track = Plan && M == Mode::Extract;
    std::map<std::string, VarInfo> SavedVarCtx;
    if (Track)
      SavedVarCtx = VarCtx;
    for (size_t I = 0; I < E.Args.size(); ++I) {
      std::pair<bool, bool> Saved;
      if (Track)
        Saved = beginTaintScope();
      Value V = evalExpr(*E.Args[I].Expr, Env);
      if (Track) {
        bool ArgDiverges = endTaintScope(Saved);
        // Parameters shadow outer bindings for the duration of the call.
        VarCtx[F.Params[I]] =
            VarInfo{GuardStack,
                    ArgDiverges || UnknownDepth > 0 ||
                        !resolvePlanArg(*E.Args[I].Expr, V).resolvable()};
      }
      if (halted())
        return Value::none();
      Frame[F.Params[I]] = std::move(V);
    }
    bool SavedAllow = ModulesAllowed;
    ModulesAllowed = AllowModules;
    PathStack.push_back("c" + std::to_string(E.NodeId));
    Value Ret;
    execBlock(F.Body, Frame, Ret);
    PathStack.pop_back();
    ModulesAllowed = SavedAllow;
    if (Track)
      VarCtx = std::move(SavedVarCtx);
    return Ret;
  }

  Value evalModuleCall(const LExpr &E, const std::string &Module,
                       const std::string &Member,
                       std::map<std::string, Value> &Env) {
    const ModuleMember *M2 = Registry.find(Module, Member);
    if (!M2) {
      fail(E.Line, "module " + Module + " has no member " + Member);
      return Value::none();
    }
    if (!ModulesAllowed) {
      fail(E.Line, "def methods cannot invoke optimization or query calls");
      return Value::none();
    }
    if (!Region) {
      fail(E.Line, Module + "." + Member +
                       " invoked outside a CodeReg/OptSeq context");
      return Value::none();
    }

    bool Track = Plan && M == Mode::Extract;
    ModuleArgs Args;
    bool HasParamArg = false;
    bool AnyArgDiverges = false;
    for (size_t I = 0; I < E.Args.size(); ++I) {
      const LArg &A = E.Args[I];
      std::pair<bool, bool> Saved;
      if (Track)
        Saved = beginTaintScope();
      Value V = evalExpr(*A.Expr, Env);
      std::string Key = A.Keyword.empty() ? "arg" + std::to_string(I) : A.Keyword;
      if (Track && endTaintScope(Saved))
        AnyArgDiverges = true;
      if (halted())
        return Value::none();
      if (V.containsParam())
        HasParamArg = true;
      Args[Key] = std::move(V);
    }

    if (M == Mode::Extract) {
      if (M2->IsQuery && !HasParamArg) {
        // Queries execute eagerly during space conversion (Section IV-C).
        // The result is stale for the oracle once any transformation has
        // been recorded: a concrete run executes the query against the
        // mutated region this walk never sees.
        if (Track && (AnyMutationRecorded || AnyArgDiverges))
          OpaqueEval = true;
        ModuleCallContext Ctx{Region, Target, TCtx};
        ModuleOutcome O = M2->Fn(Args, Ctx);
        if (!O.Result.applied()) {
          fail(E.Line, Module + "." + Member + ": " + O.Result.Message);
          return Value::none();
        }
        return O.Ret;
      }
      // Transformations are not applied while the space is being defined;
      // record where they happen (--lint reads the plan's module calls).
      if (Track && !M2->IsQuery) {
        if (!PlanBarrier) {
          analysis::PlanEntry PE;
          PE.K = analysis::PlanEntry::Kind::ModuleCall;
          PE.Guards = GuardStack;
          PE.UnderUnknownCond = UnknownDepth > 0;
          PE.Module = Module;
          PE.Member = Member;
          PE.Region = CurCodeReg;
          PE.Line = E.Line;
          Plan->Entries.push_back(std::move(PE));
        }
        AnyMutationRecorded = true;
      }
      if (Track)
        OpaqueEval = true; // placeholder result; concrete mode differs
      return Value::none();
    }

    ModuleCallContext Ctx{Region, Target, TCtx};
    bool DoVerify = TCtx && TCtx->VerifyEach && !M2->IsQuery;
    std::unique_ptr<cir::Stmt> Before;
    if (DoVerify)
      Before = Region->clone();
    ModuleOutcome O = M2->Fn(Args, Ctx);
    switch (O.Result.Status) {
    case transform::TransformStatus::Success:
      if (!M2->IsQuery) {
        if (DoVerify) {
          support::DiagEngine Diags;
          if (!analysis::verifyAfterTransform(
                  *Target, *Region, cir::cast<cir::Block>(Before.get()),
                  preservesInstanceCounts(Member), Diags)) {
            invalidate(Module + "." + Member + " failed IR verification: " +
                           Diags.firstError().render(),
                       /*IllegalTransform=*/true);
            return Value::none();
          }
        }
        ++Outcome.TransformsApplied;
      }
      return O.Ret;
    case transform::TransformStatus::NoOp:
      return O.Ret;
    case transform::TransformStatus::Illegal:
      invalidate(Module + "." + Member + " illegal: " + O.Result.Message,
                 /*IllegalTransform=*/true);
      return Value::none();
    case transform::TransformStatus::Error:
      invalidate(Module + "." + Member + " error: " + O.Result.Message);
      return Value::none();
    }
    return Value::none();
  }

  //===--------------------------------------------------------------------===//

  const LocusProgram &LProg;
  const ModuleRegistry &Registry;
  Mode M;
  search::Space *SpaceOut;
  const search::Point *Point;
  cir::Program *Target;
  transform::TransformContext *TCtx;
  analysis::TransformPlan *Plan;

  cir::Block *Region = nullptr;
  std::vector<std::string> PathStack;
  std::map<std::string, Value> GlobalScope;
  std::string CurrentTarget;
  bool ModulesAllowed = true;
  std::string Err;
  ExecOutcome Outcome;

  //===--------------------------------------------------------------------===//
  // Plan recording state (extract mode with Plan only)
  //===--------------------------------------------------------------------===//

  /// Selector guards (OR alternatives, optional statements) currently being
  /// walked; recorded on every plan entry.
  std::vector<analysis::PlanGuard> GuardStack;
  /// > 0 while walking the arms of a conditional whose outcome depends on a
  /// search value; entries recorded there may or may not execute.
  int UnknownDepth = 0;
  /// Once set, no further entries are recorded: execution past this point
  /// may diverge between extraction and a concrete run (a conditional on a
  /// value the extractor could not model took a definite branch).
  bool PlanBarrier = false;
  /// Set during an expression evaluation that produced or consumed a value
  /// whose concrete-mode counterpart may differ (module-call placeholders,
  /// queries on mutated regions).
  bool OpaqueEval = false;
  /// Set when a name lookup hit a variable recorded as unusable.
  bool TaintedEval = false;
  /// True once any mutating module call was recorded; eager queries after
  /// that point see pristine state the concrete run will have mutated.
  bool AnyMutationRecorded = false;
  /// CodeReg currently being walked ("" in global scope).
  std::string CurCodeReg;

  /// Usability of a Locus variable for symbolic argument resolution: the
  /// guard stack at assignment must be a prefix of the use-site stack (the
  /// extractor walks every OR alternative, so a binding made in one
  /// alternative leaks into the walk of its siblings and past the OR).
  struct VarInfo {
    std::vector<analysis::PlanGuard> Guards;
    bool Unusable = false;
  };
  std::map<std::string, VarInfo> VarCtx;

  bool nameUsable(const std::string &Name) const {
    auto It = VarCtx.find(Name);
    if (It == VarCtx.end())
      return true; // bound outside any recorded construct
    const VarInfo &V = It->second;
    if (V.Unusable || V.Guards.size() > GuardStack.size())
      return false;
    return std::equal(V.Guards.begin(), V.Guards.end(), GuardStack.begin());
  }

  /// Symbolic form of an evaluated expression. Purely structural: dynamic
  /// divergence (tainted names) is detected by the TaintedEval/OpaqueEval
  /// flags during evaluation, which the call sites consult separately.
  /// The default case guards against Value's param-collapsing arithmetic
  /// (valueAdd(param, x) returns the param operand, so a computed value that
  /// still contains a param is NOT the concrete result).
  analysis::PlanArg resolvePlanArg(const LExpr &E, const Value &V) {
    using analysis::PlanArg;
    switch (E.Kind) {
    case LExprKind::Lit:
    case LExprKind::Name:
    case LExprKind::SearchCall:
    case LExprKind::OrExpr:
      return planArgFromValue(V);
    case LExprKind::ListMaker:
    case LExprKind::TupleMaker: {
      std::vector<Value> Copy;
      const std::vector<Value> *Items = nullptr;
      if (V.isList()) {
        Copy = *V.asList();
        Items = &Copy;
      } else if (V.isTuple()) {
        Items = &V.asTuple();
      }
      if (!Items || Items->size() != E.Items.size())
        return PlanArg::unknown();
      std::vector<PlanArg> Out;
      for (size_t I = 0; I < E.Items.size(); ++I) {
        PlanArg A = resolvePlanArg(*E.Items[I], (*Items)[I]);
        if (!A.resolvable())
          return PlanArg::unknown();
        Out.push_back(std::move(A));
      }
      return PlanArg::ofList(std::move(Out));
    }
    default:
      if (V.containsParam())
        return PlanArg::unknown();
      return planArgFromValue(V);
    }
  }

  /// RAII-less taint scope: call before evaluating an expression whose
  /// divergence matters, then taintedSince() afterwards.
  std::pair<bool, bool> beginTaintScope() {
    std::pair<bool, bool> Saved{TaintedEval, OpaqueEval};
    TaintedEval = OpaqueEval = false;
    return Saved;
  }
  bool endTaintScope(std::pair<bool, bool> Saved) {
    bool Fired = TaintedEval || OpaqueEval;
    TaintedEval = TaintedEval || Saved.first;
    OpaqueEval = OpaqueEval || Saved.second;
    return Fired;
  }

  bool recordingPlan() const {
    return Plan != nullptr && M == Mode::Extract && !PlanBarrier;
  }

  /// Evaluates a control-flow condition. In plan-recording mode a condition
  /// whose extraction-time value may diverge from its concrete-mode value
  /// (and is not a search value, for which every arm is walked) takes a
  /// definite branch here that the concrete run may not take: recording must
  /// stop at that point (the entries so far remain a valid prefix).
  Value evalCond(const LExpr &E, std::map<std::string, Value> &Env) {
    if (!(Plan && M == Mode::Extract))
      return evalExpr(E, Env);
    std::pair<bool, bool> Saved = beginTaintScope();
    Value C = evalExpr(E, Env);
    bool Diverges = endTaintScope(Saved);
    if (Diverges && !C.isParam() && !C.containsParam())
      PlanBarrier = true;
    return C;
  }

  /// Whether any Call/SearchCall node appears in \p E. Used when a
  /// short-circuit operator skips its right operand during extraction: the
  /// concrete run may still evaluate it, so an unwalked operand that could
  /// apply a transformation (or register a construct) bars further
  /// recording.
  static bool exprContainsCall(const LExpr &E) {
    if (E.Kind == LExprKind::Call || E.Kind == LExprKind::SearchCall)
      return true;
    auto Check = [](const LExprPtr &P) {
      return P && exprContainsCall(*P);
    };
    if (Check(E.Base) || Check(E.Sub) || Check(E.Lhs) || Check(E.Rhs) ||
        Check(E.RangeLo) || Check(E.RangeHi) || Check(E.RangeStep))
      return true;
    for (const LExprPtr &I : E.Items)
      if (Check(I))
        return true;
    for (const LArg &A : E.Args)
      if (Check(A.Expr))
        return true;
    return false;
  }
};

} // namespace

LocusInterpreter::LocusInterpreter(const LocusProgram &LProg,
                                   const ModuleRegistry &Registry)
    : LProg(LProg), Registry(Registry) {}

ExecOutcome LocusInterpreter::extractSpace(cir::Program &Target,
                                           search::Space &SpaceOut,
                                           transform::TransformContext &TCtx) {
  return extractSpace(Target, SpaceOut, TCtx, nullptr);
}

ExecOutcome LocusInterpreter::extractSpace(cir::Program &Target,
                                           search::Space &SpaceOut,
                                           transform::TransformContext &TCtx,
                                           analysis::TransformPlan *PlanOut) {
  Engine E(LProg, Registry, Mode::Extract, &SpaceOut, nullptr, &Target, &TCtx,
           PlanOut);
  ExecOutcome Out = E.run();
  SpaceOut.ids(); // intern before searches and workers share the space
  return Out;
}

ExecOutcome LocusInterpreter::applyPoint(cir::Program &Target,
                                         const search::Point &Point,
                                         transform::TransformContext &TCtx) {
  Engine E(LProg, Registry, Mode::Concrete, nullptr, &Point, &Target, &TCtx);
  return E.run();
}

ExecOutcome LocusInterpreter::applyDirect(cir::Program &Target,
                                          transform::TransformContext &TCtx) {
  search::Point Empty;
  return applyPoint(Target, Empty, TCtx);
}

Expected<SearchSettings> LocusInterpreter::searchSettings() const {
  SearchSettings Settings;
  if (!LProg.HasSearchBlock)
    return Settings;
  for (const LStmtPtr &S : LProg.SearchBlock.Stmts) {
    if (S->Kind != LStmtKind::Assign || S->Targets.size() != 1)
      continue;
    // Only literal assignments are interpreted here.
    if (S->Rhs->Kind == LExprKind::Lit)
      Settings.Values[S->Targets[0]] = S->Rhs->Literal;
  }
  return Settings;
}

} // namespace lang
} // namespace locus
