// Typed values and schemas for the embedded relational store.
//
// The SOR prototype stores users, applications, participations, raw sensed
// blobs and processed feature data in PostgreSQL (§II-B). This reproduction
// embeds a small typed relational engine instead; Value is its cell type.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.hpp"

namespace sor::db {

using Blob = std::vector<std::uint8_t>;

enum class ColumnType : std::uint8_t {
  kInt64,
  kDouble,
  kText,
  kBlob,
  kBool,
};

[[nodiscard]] constexpr const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::kInt64: return "int64";
    case ColumnType::kDouble: return "double";
    case ColumnType::kText: return "text";
    case ColumnType::kBlob: return "blob";
    case ColumnType::kBool: return "bool";
  }
  return "?";
}

struct Null {
  friend bool operator==(const Null&, const Null&) { return true; }
};

class Value {
 public:
  Value() : repr_(Null{}) {}
  Value(Null) : repr_(Null{}) {}
  Value(std::int64_t v) : repr_(v) {}
  Value(int v) : repr_(static_cast<std::int64_t>(v)) {}
  Value(std::uint64_t v) : repr_(static_cast<std::int64_t>(v)) {}
  Value(double v) : repr_(v) {}
  Value(std::string v) : repr_(std::move(v)) {}
  Value(const char* v) : repr_(std::string(v)) {}
  Value(Blob v) : repr_(std::move(v)) {}
  Value(bool v) : repr_(v) {}

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<Null>(repr_);
  }
  [[nodiscard]] bool is_int() const {
    return std::holds_alternative<std::int64_t>(repr_);
  }
  [[nodiscard]] bool is_double() const {
    return std::holds_alternative<double>(repr_);
  }
  [[nodiscard]] bool is_text() const {
    return std::holds_alternative<std::string>(repr_);
  }
  [[nodiscard]] bool is_blob() const {
    return std::holds_alternative<Blob>(repr_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(repr_);
  }

  [[nodiscard]] std::int64_t as_int() const {
    return std::get<std::int64_t>(repr_);
  }
  [[nodiscard]] double as_double() const { return std::get<double>(repr_); }
  [[nodiscard]] const std::string& as_text() const {
    return std::get<std::string>(repr_);
  }
  [[nodiscard]] const Blob& as_blob() const { return std::get<Blob>(repr_); }
  [[nodiscard]] bool as_bool() const { return std::get<bool>(repr_); }

  // Numeric view: ints widen to double. Used by aggregation queries.
  [[nodiscard]] double numeric() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_double()) return as_double();
    if (is_bool()) return as_bool() ? 1.0 : 0.0;
    return 0.0;
  }

  [[nodiscard]] bool matches(ColumnType t) const {
    switch (t) {
      case ColumnType::kInt64: return is_int();
      case ColumnType::kDouble: return is_double() || is_int();
      case ColumnType::kText: return is_text();
      case ColumnType::kBlob: return is_blob();
      case ColumnType::kBool: return is_bool();
    }
    return false;
  }

  [[nodiscard]] std::string str() const;

  friend bool operator==(const Value&, const Value&) = default;

  // Total order used by ORDER BY and by index keys. Null sorts first;
  // heterogeneous comparisons order by type index.
  [[nodiscard]] static int Compare(const Value& a, const Value& b);

 private:
  std::variant<Null, std::int64_t, double, std::string, Blob, bool> repr_;
};

using Row = std::vector<Value>;

// Strict weak order over Values via Value::Compare; the comparator behind
// typed index keys (no string materialization of keys).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    return Value::Compare(a, b) < 0;
  }
};

struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  bool nullable = false;

  friend bool operator==(const ColumnSpec&, const ColumnSpec&) = default;
};

struct Schema {
  std::string table_name;
  std::vector<ColumnSpec> columns;
  // Index (into `columns`) of the primary-key column; unique & non-null.
  int primary_key = 0;

  [[nodiscard]] int column_index(std::string_view name) const;
  [[nodiscard]] Status Validate(const Row& row) const;

  friend bool operator==(const Schema&, const Schema&) = default;
};

}  // namespace sor::db
