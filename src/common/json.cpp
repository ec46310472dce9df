#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace themis {

void JsonReader::Fail(const std::string& what) const {
  throw std::runtime_error("json line " + std::to_string(line_) + ": " + what);
}

void JsonReader::Require(Type want) {
  static const char* names[] = {"null", "bool", "number",
                                "string", "array", "object"};
  const Type got = Peek();
  if (got != want)
    throw std::runtime_error(std::string("json: expected ") +
                             names[static_cast<int>(want)] + ", got " +
                             names[static_cast<int>(got)]);
}

void JsonReader::Expect(char c) {
  Peek();
  if (text_[pos_] != c) Fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool JsonReader::Consume(std::string_view literal) {
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

void JsonReader::ReadNull() {
  Peek();
  if (!Consume("null")) Fail("invalid literal");
}

bool JsonReader::ReadBool() {
  Peek();
  if (Consume("true")) return true;
  if (Consume("false")) return false;
  Fail("invalid literal");
}

double JsonReader::ReadNumberSlow() {
  // Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  // Lenient scanning (leading '+', bare '.') would let files parse here
  // that every standard JSON tool rejects — against the fail-loudly goal.
  const char* const begin = text_.data() + pos_;
  const char* const end = text_.data() + text_.size();
  const char* p = begin;
  auto digit = [&] { return p < end && IsDigit(*p); };
  const bool negative = *p == '-';
  if (negative) ++p;
  if (!digit()) Fail("invalid value");
  const char* const int_begin = p;
  std::uint64_t integer = 0;
  if (*p == '0') {
    ++p;  // no leading zeros on multi-digit ints
  } else {
    while (digit()) integer = integer * 10 + static_cast<unsigned>(*p++ - '0');
  }
  bool plain = p - int_begin <= 15;  // an integer of at most 15 digits
  if (p < end && *p == '.') {
    plain = false;
    ++p;
    if (!digit()) Fail("digits required after decimal point");
    while (digit()) ++p;
  }
  if (p < end && (*p == 'e' || *p == 'E')) {
    plain = false;
    ++p;
    if (p < end && (*p == '+' || *p == '-')) ++p;
    if (!digit()) Fail("digits required in exponent");
    while (digit()) ++p;
  }
  pos_ = static_cast<std::size_t>(p - text_.data());
  // Below 2^53 the conversion is exact, so it equals from_chars's; "-0"
  // stays negative zero.
  if (plain) {
    const double d = static_cast<double>(integer);
    return negative ? -d : d;
  }
  // std::from_chars, not strtod: strtod honors the process locale, so a
  // ',' decimal separator would silently parse "1.5" as 1.0 and break the
  // parse(write(v)) == v property the wire digests rely on. from_chars is
  // locale-independent and the exact inverse of the to_chars writer.
  double d = 0.0;
  const auto res = std::from_chars(begin, p, d);
  if (res.ec != std::errc() || res.ptr != p)
    Fail("number outside double range");
  return d;
}

std::string_view JsonReader::ReadString() {
  Expect('"');
  const std::size_t start = pos_;
  // Fast path: no escape before the closing quote, so the text is the value.
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') return text_.substr(start, pos_++ - start);
    if (c == '\\' || c == '\n') break;
    ++pos_;
  }
  buffer_.assign(text_.data() + start, pos_ - start);
  while (true) {
    if (pos_ >= text_.size()) Fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return buffer_;
    if (c == '\n') Fail("raw newline in string");
    if (c == '\\') AppendEscape();
    else buffer_ += c;
  }
}

void JsonReader::AppendEscape() {
  if (pos_ >= text_.size()) Fail("unterminated escape");
  const char e = text_[pos_++];
  switch (e) {
    case '"': buffer_ += '"'; return;
    case '\\': buffer_ += '\\'; return;
    case '/': buffer_ += '/'; return;
    case 'b': buffer_ += '\b'; return;
    case 'f': buffer_ += '\f'; return;
    case 'n': buffer_ += '\n'; return;
    case 'r': buffer_ += '\r'; return;
    case 't': buffer_ += '\t'; return;
    case 'u': break;
    default: Fail("invalid escape");
  }
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
  // UTF-8 encode the BMP code point (surrogate pairs are not needed by
  // scenario files or frames; reject them loudly instead of mis-encoding).
  if (code >= 0xD800 && code <= 0xDFFF) Fail("surrogate pairs unsupported");
  if (code < 0x80) {
    buffer_ += static_cast<char>(code);
  } else if (code < 0x800) {
    buffer_ += static_cast<char>(0xC0 | (code >> 6));
    buffer_ += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    buffer_ += static_cast<char>(0xE0 | (code >> 12));
    buffer_ += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    buffer_ += static_cast<char>(0x80 | (code & 0x3F));
  }
}

void JsonReader::EnterContainer() {
  if (++depth_ > kMaxDepth)
    Fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
}

void JsonReader::BeginArray() {
  EnterContainer();
  Expect('[');
  fresh_ = true;
}

void JsonReader::BeginObject() {
  EnterContainer();
  Expect('{');
  fresh_ = true;
}

bool JsonReader::NextMember(std::string_view& key) {
  Peek();
  const bool first = std::exchange(fresh_, false);
  if (text_[pos_] == '}') {
    ++pos_;
    --depth_;
    return false;
  }
  if (!first) {
    if (text_[pos_] != ',') Fail("expected ',' or '}' in object");
    ++pos_;
  }
  if (Peek() != Type::kString) Fail("expected object key string");
  key = ReadString();
  Expect(':');
  return true;
}

void JsonReader::Skip() {
  switch (Peek()) {
    case Type::kNull: ReadNull(); return;
    case Type::kBool: ReadBool(); return;
    case Type::kNumber: ReadNumber(); return;
    case Type::kString: ReadString(); return;
    case Type::kArray:
      BeginArray();
      while (NextItem()) Skip();
      return;
    case Type::kObject: {
      BeginObject();
      std::string_view key;
      while (NextMember(key)) Skip();
      return;
    }
  }
}

void JsonReader::ExpectEnd() {
  SkipWhitespace();
  if (pos_ != text_.size()) Fail("trailing characters after document");
}

void JsonReader::CheckSyntax(std::string_view text) {
  JsonReader reader(text);
  reader.Skip();
  reader.ExpectEnd();
}

void JsonWriter::WriteNumber(double d, std::string& out) {
  if (!std::isfinite(d))
    throw std::invalid_argument(
        "json: cannot serialize non-finite number (NaN or Inf)");
  char buf[32];  // "-2.2250738585072014e-308" is the longest: 24 chars
  // Integral doubles below 2^53 in magnitude print as plain integers:
  // stable, human-readable, and round-trip exact. Negative zero must skip
  // this path: printing it through an integer would give "0" and lose the
  // sign bit on the round trip.
  if (std::abs(d) < 9007199254740992.0 && d == std::trunc(d) &&
      !(d == 0.0 && std::signbit(d))) {
    const auto res =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(d));
    out.append(buf, res.ptr);
    return;
  }
  // Shortest representation that round-trips (std::to_chars guarantee).
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

std::string JsonWriter::FormatNumber(double d) {
  std::string out;
  WriteNumber(d, out);
  return out;
}

void JsonWriter::WriteString(std::string_view s, std::string& out) {
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
          static const char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xF];
        } else {
          out += raw;
        }
    }
  }
  out += '"';
}

}  // namespace themis
