// Configuration knobs, each declared once. A Knob holds one setting's JSON
// key and command-line flag (either may be empty), its value type, a
// one-line doc and a setter for each form. Tables of knobs sit next to the
// configs they set; the scenario loader applies JSON objects through them
// (ApplyJson), and the binaries build their flag parsers and --help from
// them (FlagSet).
//
// ApplyJson reads an object off a JsonReader through the one object cursor
// (JsonObject, common/json.h), the table's keys its names. Its member rule
// is strict where the wire codec's is lenient: the first stray member the
// cursor reports, unknown or repeated, fails the load.
//
// Numbers are strict on both paths. A flag value goes whole through
// std::from_chars: "abc", "1x", "" and " 1" are errors, integers reject
// fractions and overflow, unsigned types a sign. A JSON number must be
// integral and in range for an integer knob. Value ranges are checked not
// here but in each config's Validate(), which the loader and the binaries
// call after parsing.
#pragma once

#include <charconv>
#include <cmath>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/json.h"

namespace themis {

/// The whole token as a T, or nullopt.
template <class T>
std::optional<T> ParseNumber(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// "HOST:PORT", split at the last colon; the port must be in [1, 65535].
struct HostPort {
  std::string host;
  int port = 0;
};
std::optional<HostPort> ParseHostPort(std::string_view token);

/// Throws std::invalid_argument("<what> (got <value>)") unless `ok`: the
/// shape of the range checks in the configs' Validate().
template <class T>
void Require(bool ok, const char* what, T value) {
  if (!ok)
    throw std::invalid_argument(std::string(what) + " (got " +
                                std::to_string(value) + ")");
}

template <class T>
constexpr const char* KnobType() {
  if constexpr (std::is_same_v<T, bool>) return "bool";
  else if constexpr (std::is_same_v<T, std::string>) return "string";
  else if constexpr (std::is_same_v<T, HostPort>) return "host:port";
  else if constexpr (std::is_floating_point_v<T>) return "number";
  else if constexpr (std::is_unsigned_v<T>) return "uint";
  else return "int";
}

/// A flag value as a T. A bool knob is a switch: it takes no value.
template <class T>
T FromToken(std::string_view token) {
  std::optional<T> v;
  if constexpr (std::is_same_v<T, bool>) v = true;
  else if constexpr (std::is_same_v<T, std::string>) v = std::string(token);
  else if constexpr (std::is_same_v<T, HostPort>) v = ParseHostPort(token);
  else v = ParseNumber<T>(token);
  if (!v)
    throw std::runtime_error(std::string("expected ") + KnobType<T>() +
                             ", got \"" + std::string(token) + "\"");
  return *v;
}

/// The JSON value at `r` as a T, read whole.
template <class T>
T FromJson(JsonReader& r) {
  using Type = JsonReader::Type;
  if constexpr (std::is_same_v<T, bool>) {
    r.Require(Type::kBool);
    return r.ReadBool();
  } else if constexpr (std::is_same_v<T, std::string> ||
                       std::is_same_v<T, HostPort>) {
    r.Require(Type::kString);
    return FromToken<T>(r.ReadString());
  } else {
    r.Require(Type::kNumber);
    const double d = r.ReadNumber();
    // 2^digits, the first value past max(), is exact as a double.
    if (std::is_integral_v<T> &&
        (d != std::floor(d) ||
         d < static_cast<double>(std::numeric_limits<T>::min()) ||
         d >= std::ldexp(1.0, std::numeric_limits<T>::digits)))
      throw std::runtime_error(std::string("expected ") + KnobType<T>() +
                               ", got " + JsonWriter::FormatNumber(d));
    return static_cast<T>(d);
  }
}

struct Knob {
  std::string key;   // in the table's JSON object; empty: flag only
  std::string flag;  // "--knob"; empty: JSON only
  std::string type;  // KnobType of the value, or "object"
  std::string doc;
  std::function<void(std::string_view)> from_flag;
  std::function<void(JsonReader&)> from_json;  // null: flag only

  /// A knob that stores its value in `field`.
  template <class T>
  static Knob Field(std::string key, std::string flag, T* field,
                    std::string doc) {
    return Setter<T>(std::move(key), std::move(flag), std::move(doc),
                     [field](T v) { *field = std::move(v); });
  }

  /// A knob that hands its value to `set`.
  template <class T, class Set>
  static Knob Setter(std::string key, std::string flag, std::string doc,
                     Set set) {
    return {std::move(key), std::move(flag), KnobType<T>(), std::move(doc),
            [set](std::string_view token) { set(FromToken<T>(token)); },
            [set](JsonReader& r) { set(FromJson<T>(r)); }};
  }

  /// A JSON-only knob whose value `read` reads whole off the reader: a
  /// nested object applied through its own table (its errors name their
  /// own paths), or a value kept for later (a copy of the reader, which
  /// `read` then skips past).
  static Knob Object(std::string key, std::string doc,
                     std::function<void(JsonReader&)> read) {
    return {std::move(key), "", "object", std::move(doc), nullptr,
            std::move(read)};
  }
};

/// The knobs of one config, the members of one JSON object.
struct KnobTable {
  std::string name;  // the object's name in error messages ("trace")
  std::vector<Knob> knobs;
};

/// Apply the JSON object at `r` through a table, reading it whole: each
/// knob takes its member's value, in table order. Each member must name a
/// knob with a JSON form, once: a typo'd key fails the load instead of
/// silently running the default. Throws std::runtime_error naming the key
/// (the object's first stray member, common/json.h) or the knob whose
/// value is wrong.
void ApplyJson(JsonReader& r, const KnobTable& table);

/// A binary's command line: the flags of the knobs added to it, and
/// operands when `operands` names them for --help.
class FlagSet {
 public:
  explicit FlagSet(std::string operands = {})
      : operands_(std::move(operands)) {}

  void Add(Knob knob);
  /// The flags of `table`'s knobs with these keys, or of all when empty.
  void Add(const KnobTable& table,
           std::initializer_list<std::string_view> keys = {});

  /// Parse argv[1..argc). Returns an empty string, or what was wrong.
  std::string Parse(int argc, const char* const* argv);
  /// Parse, then run `validate`. On an error (printed with the help for a
  /// malformed command line) and on -h/--help, print to stderr and exit 2.
  void ParseOrExit(int argc, const char* const* argv,
                   const std::function<void()>& validate = {});

  std::string Help(std::string_view program) const;
  /// The flags given, in command-line order.
  const std::vector<std::string>& given() const { return given_; }
  const std::vector<std::string>& operands() const { return operand_values_; }

 private:
  std::string operands_;
  std::vector<Knob> knobs_;
  std::vector<std::string> given_, operand_values_;
  bool help_ = false;
};

}  // namespace themis
