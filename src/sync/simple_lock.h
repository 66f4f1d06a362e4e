// Simple locks — the paper's Appendix A interface.
//
// A simple lock is Mach's machine-dependent spinning mutual-exclusion
// primitive: "a C integer, which is part of a structure to allow the simple
// addition of debugging and statistics information". That is exactly what
// simple_lock_data_t is here. The machine-dependent part (the atomic
// test-and-set and the spin discipline) lives in sync/spin_policies.*; this
// header supplies the machine-independent interface:
//
//   decl_simple_lock_data(class, name)   declaration macro
//   simple_lock_init(&l)                 initialize to unlocked
//   simple_lock(&l)                      spin until acquired
//   simple_unlock(&l)                    release
//   simple_lock_try(&l)                  single attempt, returns success
//   simple_lock_addr(l)                  address-of macro
//
// Design requirements carried over from the paper, enforced here in debug
// bookkeeping (always compiled in — they are the point of this library):
//   * a holder may not block or context switch while holding a simple lock
//     (checked by thread_block, via held_tracked_simple_locks());
//   * recursive acquisition deadlocks immediately (detected and panicked);
//   * unlock by a non-holder is a fatal invariant violation.
//
// Internal locks of the event system itself set `tracked = false` so that
// the blocking assertion describes *client* locks only.
//
// Waits and holds are reported through the lock probe (sync/lock_probe.h).
#pragma once

#include <atomic>

#include "base/panic.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"
#include "sync/lockstat.h"
#include "sync/spin_policies.h"
#include "sync/spin_stats.h"

namespace mach {

struct simple_lock_data_t {
  std::atomic<int> word{0};  // the paper's "C integer"
  // Debugging & statistics extension, per Appendix A.1:
  spin_policy policy = spin_policy::tas_then_ttas;
  bool tracked = true;
  std::atomic<const void*> holder{nullptr};
  const char* name;
  // Counters and hold/wait profile shared by every lock with this name
  // (sync/lockstat.h), bumped only while the lock is held.
  lock_stat_class* stat_class;
  // Start of the current hold when the probe times it (ktrace enabled at
  // acquisition; clock reads are too expensive for the always-on path),
  // 0 when untimed.
  std::uint64_t acquire_nanos = 0;

  simple_lock_data_t() : simple_lock_data_t("simple-lock") {}
  explicit simple_lock_data_t(const char* n, bool track = true,
                              spin_policy p = spin_policy::tas_then_ttas)
      : policy(p), tracked(track), name(n), stat_class(lock_stat_class::find(n, false)) {}

  simple_lock_data_t(const simple_lock_data_t&) = delete;
  simple_lock_data_t& operator=(const simple_lock_data_t&) = delete;
};
static_assert(sizeof(simple_lock_data_t) <= 40, "a simple lock is a word plus a few pointers");

// Appendix A declaration macro: `class` is a storage-class prefix
// (e.g. static), `name` the variable name.
#define decl_simple_lock_data(storage_class, name) storage_class ::mach::simple_lock_data_t name;
#define simple_lock_addr(lock) (&(lock))

inline void simple_lock_init(simple_lock_data_t* l, const char* name = "simple-lock",
                             bool tracked = true,
                             spin_policy policy = spin_policy::tas_then_ttas) {
  l->word.store(0, std::memory_order_relaxed);
  l->holder.store(nullptr, std::memory_order_relaxed);
  l->name = name;
  l->stat_class = lock_stat_class::find(name, false);
  l->policy = policy;
  l->tracked = tracked;
  l->acquire_nanos = 0;
}

namespace detail {

inline probe_site probe_site_of(simple_lock_data_t* l) {
  return {l, l->name, l->stat_class, &l->acquire_nanos};
}

inline void note_acquired(simple_lock_data_t* l, const void* me) {
  l->holder.store(me, std::memory_order_relaxed);
  l->stat_class->count_acquisition();
  static_assert(route(probe_kind::simple_untracked).hold == 0, "untracked holds go unheard");
  if (l->tracked) {
    ++held_tracked_simple_locks();
    lock_probe::acquired(probe_kind::simple, probe_site_of(l), me);
  }
}

}  // namespace detail

// True if the current thread holds `l`. (Debug aid; exact, since holder is
// maintained unconditionally.)
inline bool simple_lock_held(const simple_lock_data_t* l) {
  return l->holder.load(std::memory_order_relaxed) == current_thread_token();
}

inline void simple_lock(simple_lock_data_t* l, spin_stats* stats = nullptr) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) != me,
              std::string("recursive simple_lock on ") + l->name);
  if (!spin_try_acquire(l->word, stats)) {
    const probe_kind kind = l->tracked ? probe_kind::simple : probe_kind::simple_untracked;
    const wait_note wait = lock_probe::wait_begin(kind, detail::probe_site_of(l), me,
                                                  l->holder.load(std::memory_order_relaxed));
    spin_acquire(l->word, l->policy, stats);
    lock_probe::wait_end(kind, detail::probe_site_of(l), me, wait);
    l->stat_class->count_contended();
  }
  detail::note_acquired(l, me);
}

inline bool simple_lock_try(simple_lock_data_t* l, spin_stats* stats = nullptr) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) != me,
              std::string("recursive simple_lock_try on ") + l->name);
  if (!spin_try_acquire(l->word, stats)) return false;
  detail::note_acquired(l, me);
  return true;
}

inline void simple_unlock(simple_lock_data_t* l) {
  const void* me = current_thread_token();
  MACH_ASSERT(l->holder.load(std::memory_order_relaxed) == me,
              std::string("simple_unlock by non-holder of ") + l->name);
  l->holder.store(nullptr, std::memory_order_relaxed);
  if (l->tracked) {
    --held_tracked_simple_locks();
    lock_probe::released(probe_kind::simple, detail::probe_site_of(l), me);
  }
  spin_release(l->word);
}

// RAII guard (CP.20): the C-style interface above mirrors the paper;
// new C++ call sites should prefer this.
class simple_locker {
 public:
  explicit simple_locker(simple_lock_data_t& l) : lock_(&l) { simple_lock(lock_); }
  ~simple_locker() {
    if (lock_ != nullptr) simple_unlock(lock_);
  }
  simple_locker(const simple_locker&) = delete;
  simple_locker& operator=(const simple_locker&) = delete;

  // Release early (e.g. before a blocking call).
  void unlock() {
    simple_unlock(lock_);
    lock_ = nullptr;
  }

 private:
  simple_lock_data_t* lock_;
};

}  // namespace mach
