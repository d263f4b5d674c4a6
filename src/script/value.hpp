// SenseScript runtime values.
//
// nil / boolean / number / string / list. Lists have shared (reference)
// semantics like Lua tables: assigning a list to another variable aliases
// it, which the acquisition scripts rely on when accumulating readings.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace sor::script {

class Value;
using List = std::vector<Value>;
using ListPtr = std::shared_ptr<List>;

class Value {
 public:
  Value() = default;  // nil
  Value(bool b) : kind_(Kind::kBool), boolean_(b) {}
  Value(double n) : kind_(Kind::kNumber), number_(n) {}
  Value(int n) : kind_(Kind::kNumber), number_(n) {}
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), string_(s) {}
  Value(ListPtr l) : kind_(Kind::kList), list_(std::move(l)) {}

  enum class Kind { kNil, kBool, kNumber, kString, kList };

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_nil() const { return kind_ == Kind::kNil; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_list() const { return kind_ == Kind::kList; }

  [[nodiscard]] bool as_bool() const { return boolean_; }
  [[nodiscard]] double as_number() const { return number_; }
  [[nodiscard]] const std::string& as_string() const { return string_; }
  [[nodiscard]] const ListPtr& as_list() const { return list_; }

  // Lua truthiness: only nil and false are falsy.
  [[nodiscard]] bool truthy() const {
    if (kind_ == Kind::kNil) return false;
    if (kind_ == Kind::kBool) return boolean_;
    return true;
  }

  // Structural equality (lists compare by contents, unlike Lua, which is
  // more useful for assertions in task scripts).
  [[nodiscard]] bool Equals(const Value& o) const;

  [[nodiscard]] std::string ToDisplayString() const;
  [[nodiscard]] const char* TypeName() const;

  [[nodiscard]] static Value MakeList(List elements = {}) {
    return Value(std::make_shared<List>(std::move(elements)));
  }

 private:
  Kind kind_ = Kind::kNil;
  bool boolean_ = false;
  double number_ = 0.0;
  std::string string_;
  ListPtr list_;
};

// Whether storing `v` into `list` would make `list` reach itself. Lists
// are reference counted, so such a cycle would never be freed (and would
// recurse forever in Equals and ToDisplayString): every list store refuses
// it with kListCycleError.
[[nodiscard]] bool WouldCycle(const List& list, const Value& v);
inline constexpr const char* kListCycleError =
    "a list cannot contain itself";

}  // namespace sor::script
