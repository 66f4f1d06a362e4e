#include "kern/refcount.h"

namespace mach {

const char* refcount_policy_name(refcount_policy p) noexcept {
  switch (p) {
    case refcount_policy::locked:
      return "locked";
    case refcount_policy::atomic:
      return "atomic";
    case refcount_policy::striped:
      return "striped";
  }
  return "unknown";
}

}  // namespace mach
