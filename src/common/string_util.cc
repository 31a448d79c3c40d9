#include "common/string_util.h"

#include <cstdarg>
#include <cstdio>

namespace fela::common {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // +1 for the terminating NUL vsnprintf writes.
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

namespace internal_string {
std::string ToDisplayString(const std::string& v) { return v; }
std::string ToDisplayString(std::string_view v) { return std::string(v); }
std::string ToDisplayString(const char* v) { return std::string(v); }
}  // namespace internal_string

}  // namespace fela::common
