#ifndef FELA_COMMON_STATUS_H_
#define FELA_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace fela::common {

/// Error categories used across the library. Modelled after the usual
/// database-engine status palette; only the codes we actually need.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
  kUnimplemented,
};

/// Returns a short human-readable name ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap, copyable success-or-error value. The library does not use
/// exceptions; fallible operations return Status (or Result<T> below).
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
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
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

/// A value-or-Status result, in the spirit of absl::StatusOr but minimal.
/// Accessing value() on an error aborts (see FELA_CHECK in logging.h).
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value or an error Status keeps call
  /// sites terse: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : rep_(std::move(status)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(rep_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  const T& value() const& { return std::get<T>(rep_); }
  T& value() & { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value or `fallback` when holding an error.
  T value_or(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> rep_;
};

}  // namespace fela::common

/// Propagates an error Status from an expression that yields Status.
#define FELA_RETURN_IF_ERROR(expr)                      \
  do {                                                  \
    ::fela::common::Status fela_status_tmp_ = (expr);   \
    if (!fela_status_tmp_.ok()) return fela_status_tmp_; \
  } while (false)

#endif  // FELA_COMMON_STATUS_H_
