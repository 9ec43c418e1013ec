// Minimal JSON document model shared by the job layer, the result cache,
// and the versioned report output.
//
// Design constraints (all driven by content-addressed caching):
//
//   * Deterministic serialization: dump() emits members in insertion order
//     with no whitespace, so a document built in a fixed field order has one
//     canonical byte representation — the JobSpec content hash is the FNV-1a
//     of exactly this string.
//   * Exact round trips: integers are kept as int64/uint64 (never coerced
//     through double) and doubles are emitted with std::to_chars shortest
//     round-trip form, so parse(dump(v)).dump() == dump(v) byte for byte.
//     That identity is what lets a cache hit return a byte-identical result.
//   * No external dependencies; documents here are small (specs, results,
//     checkpoints), so object member lookup is a linear scan.
//
// NaN/Inf have no JSON representation and are emitted as null (matching the
// telemetry sink's convention); as_double() on null returns quiet NaN so the
// mapping round-trips.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpurel::json {

class Value {
 public:
  enum class Type : std::uint8_t {
    Null, Bool, Int, Uint, Double, String, Array, Object,
  };

  Value() = default;  // null
  Value(std::nullptr_t) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}
  Value(std::int64_t v) : type_(Type::Int), int_(v) {}
  Value(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
  Value(int v) : Value(static_cast<std::int64_t>(v)) {}
  Value(unsigned v) : Value(static_cast<std::uint64_t>(v)) {}
  Value(long long v) : Value(static_cast<std::int64_t>(v)) {}
  Value(unsigned long long v) : Value(static_cast<std::uint64_t>(v)) {}
  Value(double v) : type_(Type::Double), dbl_(v) {}
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Value(std::string_view s) : Value(std::string(s)) {}
  Value(const char* s) : Value(std::string(s)) {}

  static Value array() { Value v; v.type_ = Type::Array; return v; }
  static Value object() { Value v; v.type_ = Type::Object; return v; }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_object() const { return type_ == Type::Object; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_string() const { return type_ == Type::String; }
  bool is_number() const {
    return type_ == Type::Int || type_ == Type::Uint || type_ == Type::Double;
  }

  // --- object interface ----------------------------------------------------
  /// Insert (or overwrite) a member; keeps insertion order. Returns *this so
  /// serializers can chain. Throws std::logic_error on non-objects.
  Value& set(std::string key, Value v);
  /// Member lookup; nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Member lookup; throws std::out_of_range naming the missing key.
  const Value& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  // --- array interface -----------------------------------------------------
  void push_back(Value v);
  std::size_t size() const;
  const Value& operator[](std::size_t i) const;
  const std::vector<Value>& items() const;

  // --- scalar accessors (throw std::runtime_error on type mismatch) --------
  bool as_bool() const;
  /// Int or in-range Uint.
  std::int64_t as_int() const;
  /// Uint or non-negative Int.
  std::uint64_t as_uint() const;
  /// Any numeric; null reads back as quiet NaN (see header comment).
  double as_double() const;
  const std::string& as_string() const;

  /// Compact deterministic serialization (see header comment).
  void dump(std::string& out) const;
  std::string dump() const;

  /// Parse a complete JSON document; throws std::runtime_error with a byte
  /// offset on malformed input or trailing garbage.
  static Value parse(std::string_view text);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double dbl_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> obj_;
};

/// Append the canonical rendering of a double: std::to_chars shortest
/// round-trip form, non-finite as "null". This is the ONLY sanctioned float
/// formatter for serialized documents (lint rule float-format / D4) — every
/// other rendering is either lossy or locale/libc-dependent, which breaks
/// byte-stable caching.
void append_shortest_double(std::string& out, double v);

/// Convenience: parse typed fields with error messages naming the key.
std::uint64_t get_uint(const Value& obj, std::string_view key);
/// get_uint for a 32-bit field: a value above UINT32_MAX throws instead of
/// wrapping (a wrapped count or index would decode a different job).
std::uint32_t get_u32(const Value& obj, std::string_view key);
std::int64_t get_int(const Value& obj, std::string_view key);
double get_double(const Value& obj, std::string_view key);
bool get_bool(const Value& obj, std::string_view key);
const std::string& get_string(const Value& obj, std::string_view key);

}  // namespace gpurel::json
