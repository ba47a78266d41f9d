// Precondition checking for the fne library.
//
// FNE_REQUIRE is used at public API boundaries: it is always on (also in
// release builds) because almost every algorithm in this library has
// correctness preconditions (graph connectivity, size limits on exact
// solvers, probability ranges) whose violation would produce silently
// wrong science rather than a crash.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace fne {

/// Error thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::logic_error {
 public:
  explicit PreconditionError(const std::string& what) : std::logic_error(what) {}
};

namespace detail {
[[noreturn]] inline void require_failed(const char* expr, const char* file, int line,
                                        const std::string& msg) {
  std::ostringstream os;
  os << "FNE_REQUIRE failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw PreconditionError(os.str());
}
}  // namespace detail

}  // namespace fne

#define FNE_REQUIRE(expr, msg)                                              \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::fne::detail::require_failed(#expr, __FILE__, __LINE__, (msg));      \
    }                                                                       \
  } while (false)

namespace fne {

/// Range-checked narrowing of a parsed integer: REQUIREs lo <= v <= hi
/// before the cast, so an oversized value fails ("field=v out of range
/// [lo, hi]") instead of wrapping into a small one.
template <typename T>
[[nodiscard]] T narrow_in_range(const std::string& field, std::int64_t v, std::int64_t lo,
                                std::int64_t hi) {
  FNE_REQUIRE(v >= lo && v <= hi, field + "=" + std::to_string(v) + " out of range [" +
                                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  return static_cast<T>(v);
}

}  // namespace fne
