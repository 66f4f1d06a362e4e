// Reference-count policies (paper section 8, experiment E7).
//
// Mach implements references as "a reference count field in the
// corresponding data structure", incremented and decremented under the
// object's lock — "actually acquiring a reference requires locking the
// object (or the portion containing its reference count)". That is
// locked_refcount below, and the discipline kobject builds on.
//
// Three interchangeable policies are provided, compared head-to-head in
// the E7 shoot-out and selectable per-object through kobject. Each stays
// for its own reason:
//
//   * locked_refcount  — the paper's design: count guarded by a simple
//     lock. Every get/put pays an acquire/release pair. E7's reference
//     row and the reference the equivalence tests hold the others to.
//   * atomic_refcount  — the "portion" form taken literally: one atomic
//     RMW, no lock. kobject's default.
//   * striped_refcount — per-slot counters for long-lived objects shared
//     across threads (pset, the pager-backed memory object) whose single
//     count line would ping-pong. Threads get/put against a thread-affine
//     slot (its own cache line, each a lockref64 word, sync/lockref.h);
//     release-to-zero detection happens in a locked reconcile that folds
//     every slot into a base count. Invariant making fast-path puts
//     provably non-final: slots never go negative and base stays >= 1
//     while the object is alive, so a put that keeps its slot >= 0 cannot
//     be the last reference; a put that would drive its slot negative
//     takes the reconcile path instead. At zero the reconcile marks every
//     slot with the sticky kDeadBit, which is how clone-from-dead panics
//     stay exact.
//
// Observable semantics are identical across policies (asserted by the
// policy-equivalence property tests): release() returns true exactly
// once, over-release and clone-from-dead MACH_ASSERT identically, and
// counts match a sequential oracle. Sticky references (section 8: a
// terminated object's data structure survives while pointers to it
// exist) need no policy cooperation — deactivation never touches the
// count word, so clones of still-held references ride the fast path on
// deactivated objects exactly as on active ones; only the count reaching
// zero retires the word.
//
// Tracing discipline: every policy emits ktrace ref_take/ref_release on
// every path (records carry the active kspan context automatically).
// ref_release arg2 is the exact remaining count where the policy knows it
// (locked always; atomic exactly, from the RMW's return;
// striped's fast path only knows "not last" and emits 1) — arg2 == 0
// always and only marks destruction. locked_refcount additionally
// guarantees trace ORDER: it emits while still holding the lock, so the
// destroying record is sequenced after every other release record for
// that object (regression-tested; lock-free fast paths cannot promise
// inter-thread emit order, only per-record exactness).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>

#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "sync/lockref.h"
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

// The modern comparison point: lock-free count, one atomic RMW per op.
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
      // property the other policies keep by checking before mutating.
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

// Per-slot counters with a locked reconcile on release-to-zero.
class striped_refcount {
 public:
  // Thread-affine slots: a thread uses its kmon way (round-robin at first
  // use), so up to kSlots concurrent threads land on distinct cache lines.
  static constexpr int kSlots = kmon::num_ways;

  explicit striped_refcount(int initial = 1) : slots_(new slot_t[kSlots]), base_(initial) {
    if (initial <= 0) retire_slots_unlocked();
  }

  void acquire(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "striped_refcount";
    lockref64& s = slots_[kmon::detail::way_index()].word;
    std::uint64_t w = s.load();
    for (int attempt = 0; attempt < lockref64::kFastAttempts && !lockref64::is_locked(w);
         ++attempt) {
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference cloned from dead ") + name);
      if (s.cas(w, lockref64::pack(lockref64::count_of(w) + 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this), 0);
        return;
      }
      cpu_relax();
    }
    // Slot lock held (a reconcile is folding) or cmpxchg budget exhausted:
    // take just this slot's lock. Acquire never needs the global view —
    // the caller holds a reference, so the total cannot be zero.
    s.lock();
    if (lockref64::is_dead(s.load())) {
      s.unlock();
      panic(std::string("reference cloned from dead ") + name);
    }
    s.add_locked(1);
    kmet().kern_lockref_slow.inc();
    ktrace::emit(trace_kind::ref_take, name, reinterpret_cast<std::uint64_t>(this), 0);
    s.unlock();
  }

  bool release(const char* who = nullptr) {
    const char* name = who != nullptr ? who : "striped_refcount";
    lockref64& s = slots_[kmon::detail::way_index()].word;
    std::uint64_t w = s.load();
    for (int attempt = 0; attempt < lockref64::kFastAttempts && !lockref64::is_locked(w);
         ++attempt) {
      MACH_ASSERT(!lockref64::is_dead(w), std::string("reference over-release on ") + name);
      std::int32_t c = lockref64::count_of(w);
      // Fast path only while it keeps the slot non-negative: with every
      // slot >= 0 and base >= 1 while alive, a put that leaves its slot
      // >= 0 is provably not the last reference. Crossing below zero is
      // routed to the reconcile, the only place release-to-zero can be
      // decided.
      if (c < 1) break;
      if (s.cas(w, lockref64::pack(c - 1))) {
        kmet().kern_lockref_fast.inc();
        ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this), 1);
        return false;
      }
      cpu_relax();
    }
    return reconcile_release(name);
  }

  // Racy diagnostic sum, exact at quiescence (like the other policies'
  // value(), it is a snapshot for tests and stats, not for decisions).
  int value() const {
    std::int64_t total = base_.load(std::memory_order_relaxed);
    for (const auto& s : slots()) total += lockref64::count_of(s.word.load());
    return static_cast<int>(total);
  }

 private:
  struct alignas(64) slot_t {
    lockref64 word{0};
  };

  std::span<slot_t> slots() const noexcept { return {slots_.get(), kSlots}; }

  // Only called from the constructor (initial <= 0): no concurrency yet.
  void retire_slots_unlocked() {
    for (auto& s : slots()) s.word.unlock_to(0, lockref64::kDeadBit);
  }

  // The locked reconcile: take every slot lock (index order — the only
  // multi-lock path, so ordering is trivially acyclic), perform this
  // release against the folded total, and republish base/slots. While the
  // locks are held every fast path fails its cmpxchg and waits, so the
  // fold is a true snapshot.
  bool reconcile_release(const char* name) {
    for (auto& s : slots()) s.word.lock();
    if (lockref64::is_dead(slots_[0].word.load())) {
      for (auto& s : slots()) s.word.unlock();
      panic(std::string("reference over-release on ") + name);
    }
    std::int64_t total = base_.load(std::memory_order_relaxed);
    for (auto& s : slots()) total += s.word.count_locked();
    total -= 1;  // this release
    if (total < 0) {
      for (auto& s : slots()) s.word.unlock();
      panic(std::string("reference over-release on ") + name);
    }
    const bool last = total == 0;
    base_.store(total, std::memory_order_relaxed);
    kmet().kern_lockref_slow.inc();
    // Emit before unlocking: same ordering guarantee as the locked policy
    // — the destroying record cannot be outrun by later records.
    ktrace::emit(trace_kind::ref_release, name, reinterpret_cast<std::uint64_t>(this),
                 last ? 0 : 1);
    // Fold: slots to zero; at zero total, retire them with the sticky
    // dead bit so every later op panics from a single word load.
    for (auto& s : slots()) s.word.unlock_to(0, last ? lockref64::kDeadBit : 0);
    return last;
  }

  // Out of line, so the count costs only objects that choose this policy
  // (a krefcount is sized by its largest member).
  std::unique_ptr<slot_t[]> slots_;
  // Folded remainder. Mutated only while ALL slot locks are held; atomic
  // so value() can snapshot it without them. Invariant: >= 1 while the
  // object is alive (the fold publishes the whole positive total here).
  std::atomic<std::int64_t> base_;
};

// --- runtime policy selection (threaded through kobject) ---

// Explicit values: a policy keeps its number when another is removed
// (gtest prints the raw value into parameterised test names, which ctest
// tracks tests by).
enum class refcount_policy : std::uint8_t { locked = 0, atomic = 1, striped = 3 };

inline constexpr refcount_policy kRefcountPolicies[] = {
    refcount_policy::locked,
    refcount_policy::atomic,
    refcount_policy::striped,
};

const char* refcount_policy_name(refcount_policy p) noexcept;

// A reference count with the policy chosen at construction — the form
// kobject embeds. Dispatch is one predictable switch; the storage is a
// union so only the selected policy is ever constructed, and is sized by
// locked_refcount (a simple lock and an int): striped_refcount keeps its
// slot array out of line, allocated only by objects that choose it.
class krefcount {
 public:
  explicit krefcount(refcount_policy p, int initial = 1) : pol_(p) {
    switch (pol_) {
      case refcount_policy::locked:
        new (&u_.lk) locked_refcount(initial);
        break;
      case refcount_policy::atomic:
        new (&u_.at) atomic_refcount(initial);
        break;
      case refcount_policy::striped:
        new (&u_.st) striped_refcount(initial);
        break;
    }
  }

  ~krefcount() {
    switch (pol_) {
      case refcount_policy::locked:
        u_.lk.~locked_refcount();
        break;
      case refcount_policy::atomic:
        u_.at.~atomic_refcount();
        break;
      case refcount_policy::striped:
        u_.st.~striped_refcount();
        break;
    }
  }

  krefcount(const krefcount&) = delete;
  krefcount& operator=(const krefcount&) = delete;

  void acquire(const char* who = nullptr) {
    switch (pol_) {
      case refcount_policy::locked:
        u_.lk.acquire(who);
        break;
      case refcount_policy::atomic:
        u_.at.acquire(who);
        break;
      case refcount_policy::striped:
        u_.st.acquire(who);
        break;
    }
  }

  bool release(const char* who = nullptr) {
    switch (pol_) {
      case refcount_policy::locked:
        return u_.lk.release(who);
      case refcount_policy::atomic:
        return u_.at.release(who);
      case refcount_policy::striped:
        return u_.st.release(who);
    }
    panic("krefcount: corrupt policy tag");
  }

  int value() const {
    switch (pol_) {
      case refcount_policy::locked:
        return u_.lk.value();
      case refcount_policy::atomic:
        return u_.at.value();
      case refcount_policy::striped:
        return u_.st.value();
    }
    panic("krefcount: corrupt policy tag");
  }

  refcount_policy policy() const noexcept { return pol_; }

 private:
  union storage {
    storage() {}
    ~storage() {}
    locked_refcount lk;
    atomic_refcount at;
    striped_refcount st;
  } u_;
  refcount_policy pol_;
};

}  // namespace mach
