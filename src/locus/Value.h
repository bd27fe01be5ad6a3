//===- Value.h - Locus dynamic values ---------------------------*- C++ -*-===//
///
/// \file
/// The dynamically typed values of the Locus language (Section III): None,
/// numbers (integer / float), strings, mutable lists, immutable tuples and
/// mutable dictionaries. Lists and dictionaries have reference semantics
/// (shared across copies), tuples and scalars value semantics, matching the
/// Python-like behavior the paper describes.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_LOCUS_VALUE_H
#define LOCUS_LOCUS_VALUE_H

#include "src/support/Error.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace locus {
namespace lang {

class Value;

using ListRef = std::shared_ptr<std::vector<Value>>;
using DictRef = std::shared_ptr<std::map<std::string, Value>>;

/// A dynamically typed Locus value.
class Value {
public:
  /// Param values exist only during space extraction: a reference to a
  /// registered search parameter whose concrete value is not yet known.
  enum class Kind { None, Int, Float, String, List, Tuple, Dict, Param };

  Value() : Data(std::monostate{}) {}
  Value(int64_t V) : Data(V) {}
  Value(double V) : Data(V) {}
  Value(std::string V) : Data(std::move(V)) {}

  static Value none() { return Value(); }
  static Value boolean(bool B) { return Value(static_cast<int64_t>(B)); }
  static Value param(std::string Id) {
    Value V;
    V.Data = ParamBox{std::move(Id)};
    return V;
  }
  static Value list(std::vector<Value> Items) {
    Value V;
    V.Data = std::make_shared<std::vector<Value>>(std::move(Items));
    return V;
  }
  static Value tuple(std::vector<Value> Items);
  static Value dict() {
    Value V;
    V.Data = std::make_shared<std::map<std::string, Value>>();
    return V;
  }

  Kind kind() const;
  bool isInt() const { return kind() == Kind::Int; }
  bool isFloat() const { return kind() == Kind::Float; }
  bool isNumber() const { return isInt() || isFloat(); }
  bool isString() const { return kind() == Kind::String; }
  bool isList() const { return kind() == Kind::List; }
  bool isTuple() const { return kind() == Kind::Tuple; }
  bool isDict() const { return kind() == Kind::Dict; }
  bool isParam() const { return kind() == Kind::Param; }

  /// True when this value transitively contains a Param (lists/tuples of
  /// search variables taint the containing value).
  bool containsParam() const;

  const std::string &paramId() const;

  int64_t asInt() const;
  double asFloat() const;
  const std::string &asString() const;
  /// Shared list storage (mutations visible through every reference).
  ListRef asList() const;
  /// Tuple elements (immutable).
  const std::vector<Value> &asTuple() const;
  DictRef asDict() const;

  /// Python-like truthiness: None/0/0.0/""/empty containers are false.
  bool truthy() const;

  /// Structural equality (== in the language).
  bool equals(const Value &Other) const;

  /// Human-readable rendering (used by print and diagnostics).
  std::string str() const;

private:
  struct TupleBox {
    std::vector<Value> Items;
  };
  using TupleRef = std::shared_ptr<const TupleBox>;
  struct ParamBox {
    std::string Id;
  };

  std::variant<std::monostate, int64_t, double, std::string, ListRef, TupleRef,
               DictRef, ParamBox>
      Data;
};

/// Arithmetic and comparison on values; errors on type mismatches.
Expected<Value> valueAdd(const Value &A, const Value &B);
Expected<Value> valueSub(const Value &A, const Value &B);
Expected<Value> valueMul(const Value &A, const Value &B);
Expected<Value> valueDiv(const Value &A, const Value &B);
Expected<Value> valueMod(const Value &A, const Value &B);
Expected<Value> valuePow(const Value &A, const Value &B);
Expected<Value> valueCompare(const std::string &Op, const Value &A,
                             const Value &B);

} // namespace lang
} // namespace locus

#endif // LOCUS_LOCUS_VALUE_H
