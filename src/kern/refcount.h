// Reference counts (paper section 8, experiment E7).
//
// Mach implements references as "a reference count field in the
// corresponding data structure", incremented and decremented under the
// object's lock — "actually acquiring a reference requires locking the
// object (or the portion containing its reference count)". Two types
// follow that sentence:
//
//   * locked_refcount — the paper's design: count guarded by a simple
//     lock. Every get/put pays an acquire/release pair. E7's reference
//     row and the reference the equivalence tests hold atomic_refcount to.
//   * atomic_refcount — the "portion" form taken literally: one atomic
//     RMW, no lock. The count every kobject holds (kern/object.h).
//
// Observable semantics are identical (asserted by the equivalence
// property tests): release() returns true exactly once, over-release and
// clone-from-dead MACH_ASSERT identically, and counts match a sequential
// oracle. Sticky references (section 8: a terminated object's data
// structure survives while pointers to it exist) need no count
// cooperation — deactivation never touches the count, so clones of
// still-held references work on deactivated objects exactly as on active
// ones; only the count reaching zero retires it.
//
// Tracing discipline: both emit ktrace ref_take/ref_release on every op
// (records carry the active kspan context automatically), with arg2 the
// exact resulting count — arg2 == 0 always and only marks destruction.
// locked_refcount additionally guarantees trace ORDER: it emits while
// still holding the lock, so the destroying record is sequenced after
// every other release record for that object (regression-tested; the
// lock-free count cannot promise inter-thread emit order, only
// per-record exactness).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "base/panic.h"
#include "sync/simple_lock.h"
#include "trace/ktrace.h"

namespace mach {

// The paper's design: count guarded by a simple lock.
class locked_refcount {
 public:
  explicit locked_refcount(int initial = 1) : lock_("refcount", /*track=*/false), count_(initial) {}

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "locked_refcount";
    simple_lock(&lock_);
    MACH_ASSERT(count_ > 0, std::string("reference cloned from dead ") + name);
    ++count_;
    // Emit under the lock: the record order then matches the count order.
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(count_));
    simple_unlock(&lock_);
  }

  // Returns true if this released the last reference.
  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "locked_refcount";
    simple_lock(&lock_);
    MACH_ASSERT(count_ > 0, std::string("reference over-release on ") + name);
    int remaining = --count_;
    // Emit while the lock still pins the object. Once we unlock, a racing
    // release may drop the last reference and the caller may destroy the
    // object; an emit issued after that point would sequence a ref_release
    // record AFTER the destruction record (or attribute it to a recycled
    // address). Capturing the fields and emitting under the lock makes the
    // arg2 == 0 record provably the final trace record for this object.
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(remaining));
    simple_unlock(&lock_);
    return remaining == 0;
  }

  int value() const {
    simple_lock(&lock_);
    int v = count_;
    simple_unlock(&lock_);
    return v;
  }

 private:
  mutable simple_lock_data_t lock_;
  int count_;
};

// The portion form: lock-free count, one atomic RMW per op.
class atomic_refcount {
 public:
  explicit atomic_refcount(int initial = 1) : count_(initial) {}

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "atomic_refcount";
    int prev = count_.fetch_add(1, std::memory_order_relaxed);
    if (prev <= 0) {
      // Undo before panicking: dead must stay sticky, or a (caught, in
      // tests) clone-from-dead panic would resurrect the count to 1 and a
      // later release would report a second "last" — the equivalence
      // property locked_refcount keeps by checking before mutating.
      count_.fetch_sub(1, std::memory_order_relaxed);
      panic(std::string("reference cloned from dead ") + name);
    }
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(prev + 1));
  }

  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "atomic_refcount";
    int prev = count_.fetch_sub(1, std::memory_order_acq_rel);
    if (prev <= 0) {
      count_.fetch_add(1, std::memory_order_relaxed);  // sticky dead, as above
      panic(std::string("reference over-release on ") + name);
    }
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 static_cast<std::uint64_t>(prev - 1));
    return prev == 1;
  }

  int value() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> count_;
};

}  // namespace mach
