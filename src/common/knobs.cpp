#include "common/knobs.h"

#include <algorithm>
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

void ApplyJson(const JsonValue& object, const KnobTable& table) {
  const auto& members = object.members();
  for (auto it = members.begin(); it != members.end(); ++it) {
    const std::string& key = it->first;
    const auto knob = std::find_if(
        table.knobs.begin(), table.knobs.end(), [&](const Knob& k) {
          return !k.key.empty() && k.key == key && k.from_json;
        });
    if (knob == table.knobs.end())
      throw std::runtime_error("unknown key \"" + key + "\" in " + table.name);
    if (std::any_of(members.begin(), it,
                    [&](const auto& m) { return m.first == key; }))
      throw std::runtime_error("duplicate key \"" + key + "\" in " +
                               table.name);
    try {
      knob->from_json(it->second);
    } catch (const std::runtime_error& e) {
      if (knob->type == "object") throw;
      throw std::runtime_error(table.name + "." + key + ": " + e.what());
    }
  }
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
