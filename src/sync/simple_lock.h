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
#pragma once

#include <atomic>

#include "base/panic.h"
#include "base/stats.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "sync/lockstat.h"
#include "sync/spin_policies.h"
#include "sync/spin_stats.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

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
  // Start of the current hold when it is timed (ktrace enabled at
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

// Cold halves of the tracing instrumentation, kept out of line so the
// always-inlined lock/unlock fast paths stay compact when tracing is off.
[[gnu::noinline, gnu::cold]] inline void begin_timed_hold(simple_lock_data_t* l) {
  l->acquire_nanos = now_nanos();
}

[[gnu::noinline, gnu::cold]] inline void finish_timed_hold(simple_lock_data_t* l) {
  // This hold was timed (tracing was on at acquisition); finish the hold
  // span while we still own the lock.
  const std::uint64_t end = now_nanos();
  const std::uint64_t hold = end - l->acquire_nanos;
  l->stat_class->record_hold(hold);
  l->acquire_nanos = 0;
  ktrace::emit_span(trace_kind::simple_lock_held, l->name, reinterpret_cast<std::uint64_t>(l),
                    hold, end);
}

inline void note_acquired(simple_lock_data_t* l, const void* me) {
  l->holder.store(me, std::memory_order_relaxed);
  l->stat_class->count_acquisition();
  // Hold-time profiling only while tracing: the enabled() check is one
  // relaxed load, so the disabled fast path stays clock-free.
  l->acquire_nanos = 0;
  if (l->tracked && ktrace::enabled()) [[unlikely]] begin_timed_hold(l);
  if (l->tracked) {
    ++held_tracked_simple_locks();
    wait_graph::instance().resource_held(l, me, l->name);
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
  bool contended = false;
  std::uint64_t wait_start = 0;
  if (!spin_try_acquire(l->word, stats)) {
    contended = true;
    if (l->tracked && ktrace::enabled()) {
      wait_start = now_nanos();
      // Annotate the active request span (if any) with the lock it is
      // about to spin on and the holder blocking it.
      kspan::note_blocked(l->name, l, l->holder.load(std::memory_order_relaxed));
    }
    wait_graph::instance().thread_waits(me, l, l->name);
    watchdog_note_wait_begin(stall_kind::simple_spin, l, l->name);
    // kprof: attribute the spin, then restore whatever the thread was
    // doing before (e.g. a complex-lock wait spinning on the interlock).
    const kprof::activity_word prev_activity = kprof::self_word();
    kprof::publish(kprof::activity::spinning, l->name);
    spin_acquire(l->word, l->policy, stats);
    kprof::publish_word(prev_activity);
    watchdog_note_wait_end();
    wait_graph::instance().thread_wait_done(me, l);
  }
  detail::note_acquired(l, me);
  if (contended) {
    l->stat_class->count_contended();
    // acquire_nanos doubles as the wait's end stamp; both are non-zero
    // only if tracing stayed on across the whole wait.
    if (wait_start != 0 && l->acquire_nanos != 0) {
      const std::uint64_t wait = l->acquire_nanos - wait_start;
      l->stat_class->record_wait(wait);
      ktrace::emit_span(trace_kind::simple_lock_wait, l->name,
                        reinterpret_cast<std::uint64_t>(l), wait, l->acquire_nanos);
    }
  }
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
  if (l->acquire_nanos != 0) [[unlikely]] detail::finish_timed_hold(l);
  l->holder.store(nullptr, std::memory_order_relaxed);
  if (l->tracked) {
    --held_tracked_simple_locks();
    wait_graph::instance().resource_released(l, me);
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
