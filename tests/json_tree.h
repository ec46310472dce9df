// A JSON document tree for tests that build, rearrange or compare whole
// documents: the wire mutation corpus (wire_corpus.h) and the wire codec's
// round-trip tests. It parses through JsonReader and writes through
// JsonWriter (common/json.h), so it checks the grammar those define; the
// library itself reads JSON only through JsonReader and JsonObject.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"

namespace themis {

class JsonTree {
 public:
  using Type = JsonReader::Type;

  /// Parse one JSON document; throws std::runtime_error as JsonReader does,
  /// on trailing characters too.
  static JsonTree Parse(std::string_view text) {
    JsonReader reader(text);
    JsonTree v = Read(reader);
    reader.ExpectEnd();
    return v;
  }

  static JsonTree MakeNull() { return JsonTree(Type::kNull); }
  static JsonTree MakeBool(bool b) {
    JsonTree v(Type::kBool);
    v.bool_ = b;
    return v;
  }
  static JsonTree MakeNumber(double n) {
    JsonTree v(Type::kNumber);
    v.number_ = n;
    return v;
  }
  static JsonTree MakeString(std::string s) {
    JsonTree v(Type::kString);
    v.string_ = std::move(s);
    return v;
  }
  static JsonTree MakeArray() { return JsonTree(Type::kArray); }
  static JsonTree MakeObject() { return JsonTree(Type::kObject); }

  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// The containers' contents; throw std::runtime_error on another type.
  const std::vector<JsonTree>& items() const {
    return Expect(Type::kArray).items_;
  }
  /// Object members in document order; duplicate keys keep both.
  const std::vector<std::pair<std::string, JsonTree>>& members() const {
    return Expect(Type::kObject).members_;
  }

  void Append(JsonTree v) {
    Expect(Type::kArray);
    items_.push_back(std::move(v));
  }
  /// Appends a member, without a duplicate check.
  void Set(std::string key, JsonTree v) {
    Expect(Type::kObject);
    members_.emplace_back(std::move(key), std::move(v));
  }

  /// Compact one-line JSON, members in order.
  std::string Write() const {
    std::string out;
    Write(out);
    return out;
  }

  /// Numbers compare by ==, so -0.0 equals 0.0.
  bool operator==(const JsonTree& o) const {
    return type_ == o.type_ && bool_ == o.bool_ && number_ == o.number_ &&
           string_ == o.string_ && items_ == o.items_ &&
           members_ == o.members_;
  }

 private:
  explicit JsonTree(Type type) : type_(type) {}

  static JsonTree Read(JsonReader& r) {
    JsonTree v(r.Peek());
    switch (v.type_) {
      case Type::kNull: r.ReadNull(); break;
      case Type::kBool: v.bool_ = r.ReadBool(); break;
      case Type::kNumber: v.number_ = r.ReadNumber(); break;
      case Type::kString: v.string_ = r.ReadString(); break;
      case Type::kArray:
        r.BeginArray();
        while (r.NextItem()) v.items_.push_back(Read(r));
        break;
      case Type::kObject: {
        r.BeginObject();
        std::string_view key;
        while (r.NextMember(key)) {
          std::string name(key);  // Read reuses the buffer `key` may view
          v.members_.emplace_back(std::move(name), Read(r));
        }
        break;
      }
    }
    return v;
  }

  const JsonTree& Expect(Type want) const {
    if (type_ != want) throw std::runtime_error("JsonTree: wrong type");
    return *this;
  }

  void Write(std::string& out) const {
    switch (type_) {
      case Type::kNull: out += "null"; return;
      case Type::kBool: out += bool_ ? "true" : "false"; return;
      case Type::kNumber: JsonWriter::WriteNumber(number_, out); return;
      case Type::kString: JsonWriter::WriteString(string_, out); return;
      case Type::kArray:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
          if (i > 0) out += ',';
          items_[i].Write(out);
        }
        out += ']';
        return;
      case Type::kObject:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
          if (i > 0) out += ',';
          JsonWriter::WriteString(members_[i].first, out);
          out += ':';
          members_[i].second.Write(out);
        }
        out += '}';
        return;
    }
  }

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonTree> items_;
  std::vector<std::pair<std::string, JsonTree>> members_;
};

}  // namespace themis
