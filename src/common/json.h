// The tree's one JSON grammar, one way to read an object and one JSON
// number formatter, shared by scenario files and knobs (src/sim/scenario.*,
// src/common/knobs.*) and the ARBITER wire protocol (src/net/wire.*).
//
//   - JsonReader is a pull reader over one document: the full JSON value
//     grammar (objects, arrays, strings with escapes, numbers, booleans,
//     null), line-numbered errors and a nesting bound of 64. Nothing builds
//     a tree: every caller reads values straight off the text.
//   - JsonObject is the cursor every caller reads an object through. It
//     hands out members by name, in whatever order the caller asks, and
//     reports the first member it walked past that is not one of the names
//     or repeats one. What a caller does with that member is the caller's
//     rule: wire frames ignore it (net/wire.cpp), a knob table rejects it
//     (ApplyJson, common/knobs.cpp).
//   - JsonWriter::WriteNumber and WriteString append to a std::string, and
//     the wire encoders append through them. Numbers take the shortest form
//     that parses back to the same double, so a decoded frame reproduces
//     the encoded values bit for bit, the property the newline-delimited
//     wire codec depends on for grant-stream equivalence.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace themis {

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

  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

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

  /// Throws std::runtime_error("json: expected <want>, got <type>") unless
  /// the next value is of type `want`.
  void Require(Type want);

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
  /// must have been read past `offset` without error already. Line numbers
  /// count the text again after a Seek back, so only a fresh reader (as in
  /// CheckSyntax) reports them true.
  std::size_t offset() const { return pos_; }
  void Seek(std::size_t offset) { pos_ = offset; }

  [[noreturn]] void Fail(const std::string& what) const;

  /// Throws the first syntax error in `text`, if it has one. A caller that
  /// rejects a document for what it says, not how it is spelled, runs this
  /// first, so a syntax error anywhere in the text is the one reported.
  static void CheckSyntax(std::string_view text);

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

/// Cursor over one object's members, which the caller asks for by name out
/// of a fixed list. Find hands out the reader at a member's value, which
/// the caller then reads whole (or throws); a member found ahead of its turn
/// is skipped and read back when asked for. Close reads on to the object's
/// end. Only the first occurrence of a name counts. Opened on a value that
/// is not an object, it has no members, so every lookup finds nothing.
class JsonObject {
 public:
  /// The most names one cursor looks up: a wire frame's 20.
  static constexpr std::size_t kCapacity = 20;

  /// A member the walk passed that is not one of the names, or that
  /// repeats one.
  struct Stray {
    std::string key;
    bool repeated = false;
  };

  /// Opens the value at `r`'s position; `r` is shared with the caller.
  /// `names` holds at most kCapacity names and must outlive the cursor.
  JsonObject(JsonReader& r, std::span<const std::string_view> names)
      : r_(r), names_(names) {
    at_.fill(kUnseen);
    if (r.Peek() == JsonReader::Type::kObject) {
      r.BeginObject();
    } else {
      r.Skip();
      done_ = true;
    }
    is_object_ = !done_;
    frontier_ = r.offset();
  }

  bool is_object() const { return is_object_; }

  /// The reader at the value of `key`, or nullptr when it is absent (or
  /// not one of the names).
  JsonReader* Find(std::string_view key) {
    const std::size_t want = IndexOf(key);
    if (want == kUnseen) return nullptr;
    Resume();
    if (at_[want] != kUnseen) {  // passed already: go back for it
      r_.Seek(at_[want]);
      return &r_;
    }
    return Walk(want);
  }

  /// Reads past every member not asked for; the reader ends after the
  /// object.
  void Close() {
    Resume();
    Walk(kUnseen);
  }

  /// The first stray member walked past so far; after Close, in the whole
  /// object.
  const std::optional<Stray>& stray() const { return stray_; }

 private:
  static constexpr std::size_t kUnseen = std::string_view::npos;

  std::size_t IndexOf(std::string_view key) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == key) return i;
    return kUnseen;
  }

  /// Back to where the member walk stopped: past the value the caller just
  /// read, if Find handed one out from there.
  void Resume() {
    if (in_value_) frontier_ = r_.offset();
    in_value_ = false;
    r_.Seek(frontier_);
  }

  /// Walks on to the first occurrence of names_[want], left unread for the
  /// caller, or to the object's end (nullptr).
  JsonReader* Walk(std::size_t want) {
    for (std::string_view k; !done_;) {
      if (!r_.NextMember(k)) {
        done_ = true;
      } else if (const std::size_t i = IndexOf(k);
                 i != kUnseen && at_[i] == kUnseen) {
        at_[i] = r_.offset();
        if (i == want) {
          in_value_ = true;
          return &r_;
        }
        r_.Skip();
      } else {
        if (!stray_) stray_ = Stray{std::string(k), i != kUnseen};
        r_.Skip();
      }
      frontier_ = r_.offset();
    }
    return nullptr;
  }

  JsonReader& r_;
  std::span<const std::string_view> names_;
  std::array<std::size_t, kCapacity> at_;  // where each name's value starts
  std::size_t frontier_ = 0;  // where the member walk resumes
  bool in_value_ = false;     // the caller is reading the frontier's value
  bool done_ = false;         // the walk is past the closing '}'
  bool is_object_ = false;
  std::optional<Stray> stray_;
};

/// Compact single-line JSON output, appended piece by piece.
///
/// Guarantees:
///   - strings are escaped per RFC 8259 (quote, backslash, and control
///     characters below 0x20; other bytes pass through, so UTF-8 text
///     round-trips byte-identically),
///   - numbers use the shortest representation that parses back to the
///     same double (std::to_chars), so reading it back gives v bit for bit,
///   - non-finite numbers throw std::invalid_argument (JSON cannot
///     represent them; silently emitting "null" would corrupt frames),
///   - output contains no newlines, so one document is one wire frame.
class JsonWriter {
 public:
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
