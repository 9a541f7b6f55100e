// Status / Result error model, in the style of RocksDB's Status.
//
// Library code in sqp never throws for anticipated failures (bad SQL,
// missing table, constraint violations); it returns Status or Result<T>.
// Logic errors (broken invariants) are guarded with assertions.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

namespace sqp {

enum class StatusCode {
  kOk = 0,
  kNotFound,
  kInvalidArgument,
  kAlreadyExists,
  kNotSupported,
  kInternal,
  kCancelled,
  /// A resource limit or transient exhaustion (storage budget, injected
  /// transient fault). Retryable: the same operation may succeed later.
  kResourceExhausted,
  /// Durable data is unrecoverably lost or corrupt: a torn page failed
  /// its checksum, or the disk crashed and must be reopened. Never
  /// retryable — the damage is in the stored bytes, not the operation.
  kDataLoss,
  /// The system is not in a state where this operation is allowed
  /// (e.g. killing a node would break manifest quorum). The operation
  /// was refused before any state changed.
  kFailedPrecondition,
};

/// Outcome of an operation that can fail. Cheap to copy when OK.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }

  /// Whether retrying the failed operation may succeed (transient
  /// failures: resource exhaustion). Permanent errors — bad input,
  /// broken invariants — are not retryable.
  bool IsRetryable() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Human-readable "CODE: message" string.
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

/// A value or an error. Use `ok()` before dereferencing.
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}         // NOLINT implicit
  Result(Status status) : status_(std::move(status)) {  // NOLINT implicit
    // A Result built from an OK status carries neither a value nor an
    // error; continuing would dereference an empty value later, far
    // from the bug. Fail here with a readable message in every build.
    if (status_.ok()) {
      std::fprintf(stderr,
                   "FATAL: Result<T> constructed from an OK Status; "
                   "return the value instead\n");
      std::abort();
    }
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }
  T& value() {
    assert(ok());
    return *value_;
  }
  const T& value() const {
    assert(ok());
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  // Always constructed (OK when a value is held), so destroying a
  // Result never has to ask which member is live.
  Status status_;
  std::optional<T> value_;
};

/// Propagate a non-OK Status from the current function.
#define SQP_RETURN_IF_ERROR(expr)        \
  do {                                   \
    ::sqp::Status _st = (expr);          \
    if (!_st.ok()) return _st;           \
  } while (0)

#define SQP_STATUS_CONCAT_IMPL(a, b) a##b
#define SQP_STATUS_CONCAT(a, b) SQP_STATUS_CONCAT_IMPL(a, b)

/// Evaluate a Result<T> expression; on error propagate its Status from
/// the current function, otherwise assign the value to `lhs` (which may
/// declare a new variable: SQP_ASSIGN_OR_RETURN(auto x, F());).
#define SQP_ASSIGN_OR_RETURN(lhs, expr)                             \
  auto SQP_STATUS_CONCAT(_sqp_result_, __LINE__) = (expr);          \
  if (!SQP_STATUS_CONCAT(_sqp_result_, __LINE__).ok()) {            \
    return SQP_STATUS_CONCAT(_sqp_result_, __LINE__).status();      \
  }                                                                 \
  lhs = std::move(*SQP_STATUS_CONCAT(_sqp_result_, __LINE__))

}  // namespace sqp
