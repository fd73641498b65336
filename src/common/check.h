// Always-on invariant check.
//
// HELIOS_CHECK(cond, message) stops the process when `cond` is false, in
// every build: unlike assert it survives NDEBUG, which the default
// RelWithDebInfo build and the Release CI job both define. It prints the
// file, line, condition and `message` to stderr, then aborts. `message`
// is any expression convertible to std::string and is evaluated only on
// failure, so a check on a hot path costs one branch.

#ifndef HELIOS_COMMON_CHECK_H_
#define HELIOS_COMMON_CHECK_H_

#include <cstdio>
#include <cstdlib>
#include <string>

namespace helios::common {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* condition,
                                     const std::string& message) {
  std::fprintf(stderr, "%s:%d: check failed: %s: %s\n", file, line, condition,
               message.c_str());
  std::abort();
}

}  // namespace helios::common

#define HELIOS_CHECK(cond, message)                                       \
  do {                                                                    \
    if (!(cond)) [[unlikely]] {                                           \
      ::helios::common::CheckFailed(__FILE__, __LINE__, #cond, (message)); \
    }                                                                     \
  } while (false)

#endif  // HELIOS_COMMON_CHECK_H_
