// Environment knobs (MACHLOCK_*), read one way everywhere.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mach {

// True when `var` is set and starts with '1' (the MACHLOCK_X=1 switches).
inline bool env_flag(const char* var) noexcept {
  const char* v = std::getenv(var);
  return v != nullptr && v[0] == '1';
}

// The number in `var`, or `def` when it is unset or empty. A value that is
// not wholly a number >= `lo` ("64k", "5s", "0" where lo is 1) is reported
// in one stderr line naming the variable, and `def` is kept.
template <class T>
T env_number(const char* var, T def, T lo) {
  const char* v = std::getenv(var);
  if (v == nullptr || v[0] == '\0') return def;
  const char* end = v + std::strlen(v);
  T n{};
  const auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec == std::errc{} && ptr == end && n >= lo) return n;
  std::fprintf(stderr, "machlock: ignoring %s=%s (want a number >= %g); using %g\n", var, v,
               static_cast<double>(lo), static_cast<double>(def));
  return def;
}

}  // namespace mach
