// Minimal JSON reader + writer shared by scenario files (src/sim/scenario.*)
// and the ARBITER wire protocol (src/net/wire.*).
//
// The reader supports the full JSON value grammar (objects, arrays, strings
// with escapes, numbers, booleans, null) with line-numbered parse errors.
// The writer (JsonWriter) emits compact single-line documents with correct
// string escaping and shortest round-trip number formatting, so
// Parse(JsonWriter::Write(v)) reproduces v bit-for-bit — the property the
// newline-delimited wire codec depends on for grant-stream equivalence.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace themis {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one JSON document. Throws std::runtime_error with a line number
  /// on malformed input, trailing garbage, or containers nested more than
  /// 64 deep (the recursion bound that keeps untrusted wire frames from
  /// overflowing the stack).
  static JsonValue Parse(const std::string& text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;
  const std::vector<JsonValue>& items() const;
  /// Object members in document order (duplicate keys keep both; Find
  /// returns the first).
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Member lookup on an object; nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;

  /// Builder constructors, so embedders can assemble documents for
  /// JsonWriter instead of hand-formatting JSON strings.
  static JsonValue MakeNull();
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  /// Append an element to an array. Throws on non-arrays.
  void Append(JsonValue v);
  /// Append a member to an object (no duplicate-key check, matching the
  /// parser's duplicate behavior: Find returns the first). Throws on
  /// non-objects.
  void Set(std::string key, JsonValue v);

  /// Deep structural equality (numbers compare by ==, so two NaNs differ
  /// and -0.0 == 0.0 — the writer never emits NaN anyway). Backs the
  /// Parse(Write(v)) == v round-trip property tests.
  bool operator==(const JsonValue& other) const;
  bool operator!=(const JsonValue& other) const { return !(*this == other); }

 private:
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Compact single-line JSON serializer.
///
/// Guarantees:
///   - strings are escaped per RFC 8259 (quote, backslash, and control
///     characters below 0x20; other bytes pass through, so UTF-8 text
///     round-trips byte-identically),
///   - numbers use the shortest representation that parses back to the
///     same double (std::to_chars), so Parse(Write(v)) == v bit-for-bit,
///   - non-finite numbers throw std::invalid_argument (JSON cannot
///     represent them; silently emitting "null" would corrupt frames),
///   - output contains no newlines, so one document is one wire frame.
class JsonWriter {
 public:
  static std::string Write(const JsonValue& v);
  static void Write(const JsonValue& v, std::string& out);

  /// The quoted, escaped form of `s` (includes the surrounding quotes).
  static void WriteString(const std::string& s, std::string& out);
  /// Shortest round-trip decimal form of `d`. Integral values within the
  /// exactly-representable range print without fraction or exponent
  /// ("42", not "4.2e1"). Throws std::invalid_argument on NaN/Inf.
  static std::string FormatNumber(double d);
};

}  // namespace themis
