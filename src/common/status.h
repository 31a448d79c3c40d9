#ifndef FELA_COMMON_STATUS_H_
#define FELA_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace fela::common {

/// Error categories used across the library: every fallible operation
/// either succeeds or rejects an argument.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
};

/// Returns a short human-readable name ("OK" or "InvalidArgument").
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value. The library does not use
/// exceptions; fallible operations return Status.
/// [[nodiscard]] plus the build's -Werror makes silently dropping an
/// error a compile error.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

}  // namespace fela::common

#endif  // FELA_COMMON_STATUS_H_
