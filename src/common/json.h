// The tree's one JSON grammar and one JSON number formatter, shared by
// scenario files and knobs (src/sim/scenario.*, src/common/knobs.*) and the
// ARBITER wire protocol (src/net/wire.*).
//
//   - JsonReader is a pull reader over one document: the full JSON value
//     grammar (objects, arrays, strings with escapes, numbers, booleans,
//     null), line-numbered errors and a nesting bound of 64. The wire codec
//     reads frames through it directly; JsonValue::Parse builds its tree
//     through it.
//   - JsonWriter::WriteNumber and WriteString append to a std::string: the
//     wire encoders append through them, and JsonWriter::Write walks a tree
//     with them. Numbers take the shortest form that parses back to the
//     same double, so Parse(Write(v)) reproduces v bit for bit, the
//     property the newline-delimited wire codec depends on for
//     grant-stream equivalence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace themis {

class JsonReader;

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one JSON document. Throws std::runtime_error with a line number
  /// on malformed input, trailing garbage, or containers nested more than
  /// 64 deep (JsonReader's bound).
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
  static JsonValue Read(JsonReader& reader);

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Pull reader over one JSON document held in memory (not copied: the text
/// must outlive the reader). Every read skips leading whitespace, and every
/// error throws std::runtime_error("json line N: ...").
///
/// Reading an object:
///   r.BeginObject();
///   std::string_view key;
///   while (r.NextMember(key)) { ...read or Skip() the value... }
/// and an array the same way with BeginArray / NextItem. A caller that
/// reads every value, or skips it, checks the whole grammar: the errors,
/// and the order they are found in, are those of one recursive descent.
class JsonReader {
 public:
  /// Containers deeper than this fail the read. The daemon feeds untrusted
  /// network frames here: a line of nested '[' well under the frame cap
  /// would otherwise drive one recursion level per byte in any caller that
  /// walks it recursively. 64 is far beyond any scenario file or wire frame
  /// (which nest 3-4 deep) while keeping worst-case stack use trivial.
  static constexpr int kMaxDepth = 64;

  using Type = JsonValue::Type;

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The type of the next value, judged by its first byte: anything that
  /// does not open an object, array, string or literal is taken for a
  /// number, and ReadNumber then rejects it. Throws at the end of input.
  Type Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return Type::kObject;
      case '[': return Type::kArray;
      case '"': return Type::kString;
      case 't':
      case 'f': return Type::kBool;
      case 'n': return Type::kNull;
      default: return Type::kNumber;
    }
  }

  void ReadNull();
  bool ReadBool();
  /// Strict JSON number grammar, converted with std::from_chars (locale
  /// independent, the exact inverse of WriteNumber). Throws when the value
  /// is outside the double range.
  double ReadNumber() {
    Peek();
    // Inline fast path: a non-negative integer of at most 15 digits (below
    // 2^53, so exact) with nothing after it that would continue a number.
    std::size_t end = pos_;
    std::uint64_t n = 0;
    while (end < text_.size() && end - pos_ < 16 && IsDigit(text_[end]))
      n = n * 10 + static_cast<unsigned>(text_[end++] - '0');
    const std::size_t digits = end - pos_;
    if (digits == 0 || digits > 15 || (digits > 1 && text_[pos_] == '0') ||
        (end < text_.size() && ContinuesNumber(text_[end])))
      return ReadNumberSlow();
    pos_ = end;
    return static_cast<double>(n);
  }
  /// The decoded string. Without escapes it is a view into the text;
  /// otherwise into a buffer the next ReadString or NextMember reuses.
  std::string_view ReadString();

  void BeginArray();
  /// True when another element follows (read it next); false once the
  /// closing ']' is consumed.
  bool NextItem() {
    Peek();
    const bool first = std::exchange(fresh_, false);
    if (text_[pos_] == ']') {
      ++pos_;
      --depth_;
      return false;
    }
    if (!first) {
      if (text_[pos_] != ',') Fail("expected ',' or ']' in array");
      ++pos_;
    }
    return true;
  }
  void BeginObject();
  /// Reads the next key and its ':' into `key` (valid as ReadString's
  /// result is) and returns true; false once the closing '}' is consumed.
  bool NextMember(std::string_view& key);

  /// Reads and discards one value, checking it as the typed reads do.
  void Skip();
  /// Throws unless only whitespace remains.
  void ExpectEnd();

  /// Offset of the next unread byte; Seek returns to one. The document
  /// must have been read past `offset` without error already.
  std::size_t offset() const { return pos_; }
  void Seek(std::size_t offset) { pos_ = offset; }

  [[noreturn]] void Fail(const std::string& what) const;

 private:
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }
  static bool ContinuesNumber(char c) {
    return IsDigit(c) || c == '.' || c == 'e' || c == 'E';
  }
  double ReadNumberSlow();
  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  void Expect(char c);
  bool Consume(std::string_view literal);
  void EnterContainer();
  void AppendEscape();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  int depth_ = 0;       // open containers; bounded by kMaxDepth
  bool fresh_ = false;  // just past '[' or '{': no ',' before the first value
  std::string buffer_;  // ReadString's output when the string has escapes
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

  /// Appends the quoted, escaped form of `s` (with the surrounding quotes).
  static void WriteString(std::string_view s, std::string& out);
  /// Appends the shortest round-trip decimal form of `d`. Integral values
  /// within the exactly-representable range print without fraction or
  /// exponent ("42", not "4.2e1"). Throws std::invalid_argument on NaN/Inf.
  static void WriteNumber(double d, std::string& out);
  /// WriteNumber's text as a string.
  static std::string FormatNumber(double d);
};

}  // namespace themis
