#include "common/logging.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace fela::common {

namespace {
LogLevel LevelFromEnv() {
  const char* env = std::getenv("FELA_LOG_LEVEL");
  LogLevel level = LogLevel::kInfo;
  if (env != nullptr) ParseLogLevel(env, &level);
  return level;
}

// fela-lint: allow(sweep-shared-state): the log-level filter is a
// std::atomic that every sweep worker reads alike; it routes output and
// never reaches sim state.
std::atomic<LogLevel> g_min_level{LevelFromEnv()};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}
}  // namespace

void SetMinLogLevel(LogLevel level) { g_min_level.store(level); }
LogLevel MinLogLevel() { return g_min_level.load(); }

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "debug" || lower == "0") {
    *out = LogLevel::kDebug;
  } else if (lower == "info" || lower == "1") {
    *out = LogLevel::kInfo;
  } else if (lower == "warning" || lower == "warn" || lower == "2") {
    *out = LogLevel::kWarning;
  } else if (lower == "error" || lower == "3") {
    *out = LogLevel::kError;
  } else if (lower == "fatal" || lower == "4") {
    *out = LogLevel::kFatal;
  } else {
    return false;
  }
  return true;
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "[%s %s:%d] %s\n", LevelTag(level_), Basename(file_),
               line_, stream_.str().c_str());
  if (level_ == LogLevel::kFatal) {
    std::fflush(stderr);
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace fela::common
