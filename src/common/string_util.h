#ifndef FELA_COMMON_STRING_UTIL_H_
#define FELA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fela::common {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins elements with `sep`, using operator<< for stringification.
template <typename Container>
std::string Join(const Container& parts, std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Implementation details only below here.

namespace internal_string {
std::string ToDisplayString(const std::string& v);
std::string ToDisplayString(std::string_view v);
std::string ToDisplayString(const char* v);
template <typename T>
std::string ToDisplayString(const T& v);
}  // namespace internal_string

template <typename Container>
std::string Join(const Container& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out += sep;
    first = false;
    out += internal_string::ToDisplayString(p);
  }
  return out;
}

namespace internal_string {
template <typename T>
std::string ToDisplayString(const T& v) {
  return std::to_string(v);
}
}  // namespace internal_string

}  // namespace fela::common

#endif  // FELA_COMMON_STRING_UTIL_H_
