#include "common/log.h"

#include <cstdio>

namespace themis {
namespace {
constexpr LogLevel kLevel = LogLevel::kWarn;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return kLevel; }

void LogMessage(LogLevel level, const std::string& msg) {
  if (static_cast<int>(level) < static_cast<int>(kLevel)) return;
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), msg.c_str());
}

}  // namespace themis
