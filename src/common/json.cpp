#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace themis {

namespace {

[[noreturn]] void TypeFail(const char* want, JsonValue::Type got) {
  static const char* names[] = {"null", "bool", "number",
                                "string", "array", "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           names[static_cast<int>(got)]);
}

}  // namespace

class JsonParser {
 public:
  /// Containers deeper than this fail the parse. The daemon feeds untrusted
  /// network frames here: without a bound, a line of nested '[' well under
  /// the frame cap drives one recursion level per byte and overflows the
  /// stack. 64 is far beyond any scenario file or wire frame (which nest
  /// 3-4 deep) while keeping worst-case stack use trivial.
  static constexpr int kMaxDepth = 64;

  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("json line " + std::to_string(line_) + ": " +
                             what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Consume(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue ParseValue() {
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject();
      case '[': return ParseArray();
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = ParseString();
        return v;
      }
      case 't':
        if (Consume("true")) {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = true;
          return v;
        }
        Fail("invalid literal");
      case 'f':
        if (Consume("false")) {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = false;
          return v;
        }
        Fail("invalid literal");
      case 'n':
        if (Consume("null")) return JsonValue{};
        Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  void EnterContainer() {
    if (++depth_ > kMaxDepth)
      Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }

  JsonValue ParseObject() {
    EnterContainer();
    Expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    if (Peek() == '}') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      if (Peek() != '"') Fail("expected object key string");
      std::string key = ParseString();
      Expect(':');
      v.members_.emplace_back(std::move(key), ParseValue());
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        --depth_;
        return v;
      }
      Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    EnterContainer();
    Expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    if (Peek() == ']') {
      ++pos_;
      --depth_;
      return v;
    }
    while (true) {
      v.items_.push_back(ParseValue());
      const char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        --depth_;
        return v;
      }
      Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') Fail("raw newline in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
            else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
            else Fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // by scenario files; reject them loudly instead of mis-encoding).
          if (code >= 0xD800 && code <= 0xDFFF)
            Fail("surrogate pairs unsupported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: Fail("invalid escape");
      }
    }
  }

  JsonValue ParseNumber() {
    // Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // Lenient scanning (leading '+', bare '.') would let files parse here
    // that every standard JSON tool rejects — against the fail-loudly goal.
    const std::size_t start = pos_;
    auto digit = [&] {
      return pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]));
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit()) Fail("invalid value");
    if (text_[pos_] == '0') ++pos_;  // no leading zeros on multi-digit ints
    else while (digit()) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit()) Fail("digits required after decimal point");
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digit()) Fail("digits required in exponent");
      while (digit()) ++pos_;
    }
    // std::from_chars, not strtod: strtod honors the process locale, so a
    // ',' decimal separator would silently parse "1.5" as 1.0 and break the
    // parse(write(v)) == v property the wire digests rely on. from_chars is
    // locale-independent and the exact inverse of the to_chars writer.
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, v.number_);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_)
      Fail("number outside double range");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  int depth_ = 0;  // open containers; bounded by kMaxDepth
};

JsonValue JsonValue::Parse(const std::string& text) {
  return JsonParser(text).ParseDocument();
}

bool JsonValue::AsBool() const {
  if (type_ != Type::kBool) TypeFail("bool", type_);
  return bool_;
}

double JsonValue::AsNumber() const {
  if (type_ != Type::kNumber) TypeFail("number", type_);
  return number_;
}

const std::string& JsonValue::AsString() const {
  if (type_ != Type::kString) TypeFail("string", type_);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) TypeFail("array", type_);
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) TypeFail("object", type_);
  return members_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::MakeNull() { return JsonValue{}; }

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

void JsonValue::Append(JsonValue v) {
  if (type_ != Type::kArray) TypeFail("array", type_);
  items_.push_back(std::move(v));
}

void JsonValue::Set(std::string key, JsonValue v) {
  if (type_ != Type::kObject) TypeFail("object", type_);
  members_.emplace_back(std::move(key), std::move(v));
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return items_ == other.items_;
    case Type::kObject: return members_ == other.members_;
  }
  return false;
}

std::string JsonWriter::FormatNumber(double d) {
  if (!std::isfinite(d))
    throw std::invalid_argument(
        "json: cannot serialize non-finite number (NaN or Inf)");
  // Integral doubles within the exact-integer range print as plain
  // integers: stable, human-readable, and round-trip exact (the parser's
  // strtod maps the decimal integer back to the same double).
  // Negative zero must skip the integral fast path: casting through
  // long long would print "0" and lose the sign bit on the round trip.
  if (d == static_cast<double>(static_cast<long long>(d)) &&
      std::abs(d) < 9.007199254740992e15 && !(d == 0.0 && std::signbit(d))) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    return buf;
  }
  // Shortest representation that round-trips (std::to_chars guarantee).
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  return std::string(buf, res.ptr);
}

void JsonWriter::WriteString(const std::string& s, std::string& out) {
  out += '"';
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  out += '"';
}

void JsonWriter::Write(const JsonValue& v, std::string& out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += v.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      out += FormatNumber(v.AsNumber());
      break;
    case JsonValue::Type::kString:
      WriteString(v.AsString(), out);
      break;
    case JsonValue::Type::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out += ',';
        first = false;
        Write(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out += ',';
        first = false;
        WriteString(key, out);
        out += ':';
        Write(member, out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonWriter::Write(const JsonValue& v) {
  std::string out;
  Write(v, out);
  return out;
}

}  // namespace themis
