// Minimal leveled logger: warnings and errors go to stderr, debug and info
// lines are dropped. Not thread-safe by design — the simulator is
// single-threaded and deterministic.
#pragma once

#include <sstream>
#include <string>

namespace themis {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

LogLevel GetLogLevel();

void LogMessage(LogLevel level, const std::string& msg);

namespace internal {
class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  ~LogLine() { LogMessage(level_, stream_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};
}  // namespace internal

}  // namespace themis

#define THEMIS_LOG(level)                                          \
  if (static_cast<int>(::themis::LogLevel::level) <                \
      static_cast<int>(::themis::GetLogLevel())) {                 \
  } else                                                           \
    ::themis::internal::LogLine(::themis::LogLevel::level)
