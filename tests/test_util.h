// Shared test helpers.
#pragma once

#include <cstdint>
#include <type_traits>

#include "base/panic.h"
#include "kern/refcount.h"

namespace mach::testing {

inline void throwing_panic_hook(const std::string& message) { throw panic_error{message}; }

// Install a panic hook that throws panic_error for the scope's lifetime,
// so tests can assert on invariant violations.
class panic_hook_scope {
 public:
  panic_hook_scope() : previous_(set_panic_hook(&throwing_panic_hook)) {}
  ~panic_hook_scope() { set_panic_hook(previous_); }
  panic_hook_scope(const panic_hook_scope&) = delete;
  panic_hook_scope& operator=(const panic_hook_scope&) = delete;

 private:
  panic_hook_t previous_;
};

// A reference count type of kern/refcount.h as a test parameter: the
// paper's locked count, or the atomic count every kobject holds.
enum class count_type : std::uint8_t { locked = 0, atomic = 1 };

inline const char* count_type_name(count_type t) {
  return t == count_type::locked ? "locked" : "atomic";
}

// Calls f with a std::type_identity of the count class that t names, so a
// value-parameterized test body can be written once over both classes.
template <typename F>
void with_count_type(count_type t, F&& f) {
  if (t == count_type::locked) {
    f(std::type_identity<locked_refcount>{});
  } else {
    f(std::type_identity<atomic_refcount>{});
  }
}

}  // namespace mach::testing
