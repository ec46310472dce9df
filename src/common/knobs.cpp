#include "common/knobs.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>

namespace themis {

std::optional<HostPort> ParseHostPort(std::string_view token) {
  const std::size_t colon = token.rfind(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const std::optional<int> port = ParseNumber<int>(token.substr(colon + 1));
  if (!port || *port < 1 || *port > 65535) return std::nullopt;
  return HostPort{std::string(token.substr(0, colon)), *port};
}

void ApplyJson(JsonReader& r, const KnobTable& table) {
  // The cursor's names, and the knob each one sets.
  std::array<std::string_view, JsonObject::kCapacity> keys;
  std::array<const Knob*, JsonObject::kCapacity> knobs;
  std::size_t n = 0;
  for (const Knob& knob : table.knobs) {
    if (knob.key.empty() || !knob.from_json) continue;
    if (n == keys.size())
      throw std::logic_error("ApplyJson: " + table.name +
                             " has more JSON keys than JsonObject::kCapacity");
    keys[n] = knob.key;
    knobs[n++] = &knob;
  }
  r.Require(JsonReader::Type::kObject);
  JsonObject object(r, std::span(keys.data(), n));
  for (std::size_t i = 0; i < n; ++i) {
    JsonReader* value = object.Find(keys[i]);
    if (value == nullptr) continue;
    try {
      knobs[i]->from_json(*value);
    } catch (const std::runtime_error& e) {
      if (knobs[i]->type == "object") throw;
      throw std::runtime_error(table.name + "." + knobs[i]->key + ": " +
                               e.what());
    }
  }
  object.Close();
  if (const auto& stray = object.stray())
    throw std::runtime_error(
        std::string(stray->repeated ? "duplicate" : "unknown") + " key \"" +
        stray->key + "\" in " + table.name);
}

void FlagSet::Add(Knob knob) {
  if (knob.flag.empty())
    throw std::logic_error("FlagSet: knob \"" + knob.key + "\" has no flag");
  knobs_.push_back(std::move(knob));
}

void FlagSet::Add(const KnobTable& table,
                  std::initializer_list<std::string_view> keys) {
  for (const Knob& knob : table.knobs)
    if (keys.size() == 0 && !knob.flag.empty()) Add(knob);
  for (std::string_view key : keys) {
    const auto knob = std::ranges::find(table.knobs, key, &Knob::key);
    if (knob == table.knobs.end())
      throw std::logic_error("FlagSet: no knob \"" + std::string(key) +
                             "\" in " + table.name);
    Add(*knob);
  }
}

std::string FlagSet::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      help_ = true;
      return {};
    }
    if (arg.empty() || arg[0] != '-') {
      if (operands_.empty()) return "unexpected argument: " + arg;
      operand_values_.push_back(arg);
      continue;
    }
    const auto knob = std::ranges::find(knobs_, arg, &Knob::flag);
    if (knob == knobs_.end()) return "unknown flag: " + arg;
    given_.push_back(arg);
    const bool takes_value = knob->type != "bool";
    if (takes_value && i + 1 >= argc) return arg + ": missing value";
    try {
      knob->from_flag(takes_value ? argv[++i] : "");
    } catch (const std::exception& e) {
      return arg + ": " + e.what();
    }
  }
  return {};
}

void FlagSet::ParseOrExit(int argc, const char* const* argv,
                          const std::function<void()>& validate) {
  const std::string error = Parse(argc, argv);
  if (error.empty() && !help_) {
    try {
      if (validate) validate();
      return;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
      std::exit(2);
    }
  }
  if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
  std::fputs(Help(argv[0]).c_str(), stderr);
  std::exit(2);
}

std::string FlagSet::Help(std::string_view program) const {
  std::string out = "usage: " + std::string(program) + " [flags]";
  out += (operands_.empty() ? "" : " " + operands_) + "\n";
  for (const Knob& knob : knobs_) {
    std::string head = "  " + knob.flag;
    if (knob.type != "bool") head += " <" + knob.type + ">";
    head.resize(std::max<std::size_t>(head.size() + 2, 26), ' ');
    out += head + knob.doc + "\n";
  }
  return out;
}

}  // namespace themis
