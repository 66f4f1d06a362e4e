#include "sync/complex_lock.h"

#include "base/backoff.h"
#include "base/panic.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sched/event.h"
#include "sync/deadlock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

// --- statistics (interlock held) ---

// Count an acquisition in the lock's own stats (lock_stats) and its name's
// (lockstat).
inline void count_acquisition(lock_t l, std::uint64_t& counter) {
  ++counter;
  l->stat_class->count_acquisition();
}

// --- hold/wait-time profiling (ktrace-gated; interlock held) ---

// Stamp the start of a wait the first time a wait loop iterates.
inline std::uint64_t wait_stamp(std::uint64_t current) {
  if (current != 0) return current;
  return ktrace::enabled() ? now_nanos() : 0;
}

// Annotate the active request span (if any) with the complex lock the
// caller is about to wait on and the write holder blocking it (null when
// the lock is held by readers). Interlock held; emit does not block.
inline void span_note_wait(lock_t l) {
  kspan::note_blocked(l->name, l, l->write_holder);
}

// Close a wait span opened by wait_stamp: feed the name's wait profile and
// emit the trace record. `kind` distinguishes read/write/upgrade waits.
inline void wait_finish(lock_t l, std::uint64_t start, trace_kind kind) {
  if (start == 0 || !ktrace::enabled()) return;
  const std::uint64_t end = now_nanos();
  const std::uint64_t wait = end - start;
  l->stat_class->record_wait(wait);
  ktrace::emit_span(kind, l->name, reinterpret_cast<std::uint64_t>(l), wait, end);
}

// Begin / end write-side hold timing (upgrade holds included). Recursive
// nested acquisitions keep the outermost stamp.
inline void hold_begin(lock_t l) {
  l->write_acquire_nanos = ktrace::enabled() ? now_nanos() : 0;
}

inline void hold_finish(lock_t l) {
  if (l->write_acquire_nanos == 0) return;
  const std::uint64_t end = now_nanos();
  const std::uint64_t hold = end - l->write_acquire_nanos;
  l->write_acquire_nanos = 0;
  l->stat_class->record_hold(hold);
  ktrace::emit_span(trace_kind::complex_write_held, l->name,
                    reinterpret_cast<std::uint64_t>(l), hold, end);
}

// Wait for the lock state to change. Interlock held on entry and exit.
// Sleep mode first polls: for its first lock_sleep_polls calls per
// acquisition (counted by the caller's backoff) it releases the interlock,
// backs off, and reacquires, so a hold of a few hundred ns costs no sleep
// and wakeup. After that it blocks through the event system (the lock's
// own address is the event, as in Mach's kern/lock.c). Spin mode always
// backs off. A poll never sets `waiting`, so releases wake only sleepers.
// The caller counts the contended acquisition once, at its first wait.
void lock_wait(lock_t l, backoff& bo, bool force_sleep = false) {
  // kprof: the whole wait — sleeping through the event system or spinning
  // in backoff — samples as waiting on THIS lock. The inner thread_block
  // and interlock spins save/restore around their own publishes, so the
  // attribution survives nesting.
  const kprof::activity_word prev_activity = kprof::self_word();
  kprof::publish(kprof::activity::lock_waiting, l->name);
  if (force_sleep || (l->can_sleep && bo.pauses() >= lock_sleep_polls)) {
    l->waiting = true;
    ++l->stats.sleeps;
    assert_wait(l);
    simple_unlock(&l->interlock);
    thread_block();
    simple_lock(&l->interlock);
  } else {
    ++(l->can_sleep ? l->stats.polls : l->stats.spins);
    simple_unlock(&l->interlock);
    bo.pause();
    simple_lock(&l->interlock);
  }
  kprof::publish_word(prev_activity);
}

// Interlock held. Wake anyone blocked on the lock after a state change
// that could unblock them. Wake-all: waiters re-check their predicate and
// re-wait, which keeps the state machine simple at the price of a small
// thundering herd (Mach makes the same trade).
void lock_wakeup(lock_t l) {
  if (l->waiting) {
    l->waiting = false;
    thread_wakeup(l);
  }
}


// Release the interlock, then report the invariant violation. panic()
// normally aborts, but tests install a throwing hook; releasing first keeps
// the lock usable after the throw is caught.
[[noreturn]] void fail_locked(lock_t l, const std::string& msg) {
  simple_unlock(&l->interlock);
  panic(msg);
  __builtin_unreachable();
}

// Would a new (non-recursive) reader have to wait? With writers' priority
// (Mach behaviour) any outstanding write or upgrade request holds new
// readers off, guaranteeing the writer eventually gets the drained lock.
// Without it, readers keep piling in while read_count > 0 — the starvation
// experiment E3 measures.
bool reader_must_wait(const lock_data_t* l) {
  if (l->writer_priority) return l->want_write || l->want_upgrade;
  return (l->want_write || l->want_upgrade) && l->read_count == 0;
}

}  // namespace

void lock_init(lock_t l, bool can_sleep, const char* name) {
  simple_lock_init(&l->interlock, name, /*tracked=*/false);
  l->want_write = false;
  l->want_upgrade = false;
  l->waiting = false;
  l->can_sleep = can_sleep;
  l->writer_priority = true;
  l->mach25_try_upgrade_bug = false;
  l->read_count = 0;
  l->recursion_thread = nullptr;
  l->recursion_depth = 0;
  l->write_holder = nullptr;
  l->name = name;
  l->stats = complex_lock_stats{};
  l->stat_class = lock_stat_class::find(name, true);
  l->write_acquire_nanos = 0;
}

void lock_read(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    // The recursive holder is never blocked by pending write/upgrade
    // requests (paper sec. 4) — that is what lets it finish the work those
    // requests are waiting on.
    ++l->read_count;
    ++l->stats.recursive_acquisitions;
    count_acquisition(l, l->stats.read_acquisitions);
    simple_unlock(&l->interlock);
    return;
  }
  bool waited = false;
  std::uint64_t wait_start = 0;
  backoff bo;
  while (reader_must_wait(l)) {
    if (!waited) {
      waited = true;
      l->stat_class->count_contended();
      wait_start = wait_stamp(wait_start);
      span_note_wait(l);
      wait_graph::instance().thread_waits(me, l, l->name);
    }
    lock_wait(l, bo);
  }
  if (waited) {
    wait_graph::instance().thread_wait_done(me, l);
    wait_finish(l, wait_start, trace_kind::complex_read_wait);
  }
  ++l->read_count;
  count_acquisition(l, l->stats.read_acquisitions);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
}

void lock_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    if (l->want_write && l->write_holder == me) {
      ++l->recursion_depth;
      ++l->stats.recursive_acquisitions;
      count_acquisition(l, l->stats.write_acquisitions);
      simple_unlock(&l->interlock);
      return;
    }
    // "this downgrade prohibits recursive acquisitions for write" (sec. 4).
    simple_unlock(&l->interlock);
    panic(std::string("recursive write acquisition after downgrade on ") + l->name);
  }
  bool waited = false;
  std::uint64_t wait_start = 0;
  backoff bo;
  auto note_wait = [&] {
    if (!waited) {
      waited = true;
      l->stat_class->count_contended();
      wait_start = wait_stamp(wait_start);
      span_note_wait(l);
      wait_graph::instance().thread_waits(me, l, l->name);
      watchdog_note_wait_begin(stall_kind::writer_wait, l, l->name);
    }
  };
  // Wait our turn behind other writers/upgraders...
  while (l->want_write || l->want_upgrade) {
    note_wait();
    lock_wait(l, bo);
  }
  l->want_write = true;  // commits us: no new readers may be added
  // ...then drain existing readers, yielding to upgrades (upgrades are
  // favored over writes to avoid deadlocking a reader that must upgrade).
  while (l->read_count > 0 || l->want_upgrade) {
    note_wait();
    lock_wait(l, bo);
  }
  if (waited) {
    watchdog_note_wait_end();
    wait_graph::instance().thread_wait_done(me, l);
    wait_finish(l, wait_start, trace_kind::complex_write_wait);
  }
  l->write_holder = me;
  count_acquisition(l, l->stats.write_acquisitions);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
}

bool lock_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->read_count <= 0) fail_locked(l, std::string("upgrade without read hold on ") + l->name);
  if (l->recursion_thread == me) {
    fail_locked(l, std::string("upgrade of recursive read acquisition on ") + l->name);
  }
  --l->read_count;
  if (l->want_upgrade) {
    // Another upgrade is pending: ours fails and RELEASES the read lock
    // (required to let the other upgrade drain; the caller needs recovery
    // logic — the cost sec. 7.1 complains about, measured in E4).
    ++l->stats.upgrades_failed;
    kprof::publish(kprof::activity::running, nullptr);
    wait_graph::instance().resource_released(l, me);
    lock_wakeup(l);  // our released read hold may unblock the winner
    simple_unlock(&l->interlock);
    return true;  // TRUE = upgrade failed
  }
  l->want_upgrade = true;
  bool waited = false;
  std::uint64_t wait_start = 0;
  backoff bo;
  while (l->read_count > 0) {
    if (!waited) {
      waited = true;
      l->stat_class->count_contended();
      wait_start = wait_stamp(wait_start);
      span_note_wait(l);
      wait_graph::instance().thread_waits(me, l, l->name);
      watchdog_note_wait_begin(stall_kind::writer_wait, l, l->name);
    }
    lock_wait(l, bo);
  }
  if (waited) {
    watchdog_note_wait_end();
    wait_graph::instance().thread_wait_done(me, l);
    wait_finish(l, wait_start, trace_kind::complex_upgrade_wait);
  }
  l->write_holder = me;
  ++l->stats.upgrades_succeeded;
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  simple_unlock(&l->interlock);
  return false;
}

void lock_write_to_read(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->write_holder != me) fail_locked(l, std::string("downgrade by non-writer on ") + l->name);
  if (l->recursion_depth != 0) {
    fail_locked(l, std::string("downgrade with nested write acquisitions on ") + l->name);
  }
  hold_finish(l);  // the write-side hold ends at the downgrade
  ++l->read_count;
  if (l->want_upgrade) {
    l->want_upgrade = false;
  } else {
    l->want_write = false;
  }
  l->write_holder = nullptr;
  ++l->stats.downgrades;
  lock_wakeup(l);  // other readers may now enter
  simple_unlock(&l->interlock);
}

void lock_done(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->read_count > 0) {
    --l->read_count;
    if (l->read_count == 0 || l->recursion_thread != me) {
      kprof::publish(kprof::activity::running, nullptr);
      wait_graph::instance().resource_released(l, me);
    }
  } else if (l->recursion_depth > 0) {
    if (l->recursion_thread != me) {
      fail_locked(l, std::string("lock_done of recursive depth by non-holder on ") + l->name);
    }
    --l->recursion_depth;
  } else if (l->want_upgrade) {
    if (l->write_holder != me) {
      fail_locked(l, std::string("lock_done of upgrade hold by non-holder on ") + l->name);
    }
    l->want_upgrade = false;
    l->write_holder = nullptr;
    hold_finish(l);
    kprof::publish(kprof::activity::running, nullptr);
    wait_graph::instance().resource_released(l, me);
  } else {
    if (!(l->want_write && l->write_holder == me)) {
      fail_locked(l, std::string("lock_done of unheld lock ") + l->name);
    }
    l->want_write = false;
    l->write_holder = nullptr;
    hold_finish(l);
    kprof::publish(kprof::activity::running, nullptr);
    wait_graph::instance().resource_released(l, me);
  }
  lock_wakeup(l);
  simple_unlock(&l->interlock);
}

bool lock_try_read(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me) {
    ++l->read_count;
    ++l->stats.recursive_acquisitions;
    count_acquisition(l, l->stats.read_acquisitions);
    simple_unlock(&l->interlock);
    return true;
  }
  if (reader_must_wait(l)) {
    simple_unlock(&l->interlock);
    return false;
  }
  ++l->read_count;
  count_acquisition(l, l->stats.read_acquisitions);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
  return true;
}

bool lock_try_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread == me && l->want_write && l->write_holder == me) {
    ++l->recursion_depth;
    ++l->stats.recursive_acquisitions;
    count_acquisition(l, l->stats.write_acquisitions);
    simple_unlock(&l->interlock);
    return true;
  }
  if (l->want_write || l->want_upgrade || l->read_count > 0) {
    simple_unlock(&l->interlock);
    return false;
  }
  l->want_write = true;
  l->write_holder = me;
  count_acquisition(l, l->stats.write_acquisitions);
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  wait_graph::instance().resource_held(l, me, l->name);
  simple_unlock(&l->interlock);
  return true;
}

bool lock_try_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->read_count <= 0) fail_locked(l, std::string("try-upgrade without read hold on ") + l->name);
  if (l->want_upgrade || l->recursion_thread == me) {
    // Would deadlock (or is a recursive read): keep the read lock and
    // report failure — unlike lock_read_to_write, nothing is dropped.
    simple_unlock(&l->interlock);
    return false;
  }
  l->want_upgrade = true;
  --l->read_count;
  bool waited = false;
  std::uint64_t wait_start = 0;
  backoff bo;
  while (l->read_count > 0) {
    if (!waited) {
      waited = true;
      l->stat_class->count_contended();
      wait_start = wait_stamp(wait_start);
      span_note_wait(l);
      wait_graph::instance().thread_waits(me, l, l->name);
      watchdog_note_wait_begin(stall_kind::writer_wait, l, l->name);
    }
    // Appendix B.3: Mach 2.5's implementation blocked here even with the
    // Sleep option disabled; reproduce that when the compat knob is set.
    lock_wait(l, bo, /*force_sleep=*/l->mach25_try_upgrade_bug);
  }
  if (waited) {
    watchdog_note_wait_end();
    wait_graph::instance().thread_wait_done(me, l);
    wait_finish(l, wait_start, trace_kind::complex_upgrade_wait);
  }
  l->write_holder = me;
  ++l->stats.upgrades_succeeded;
  hold_begin(l);
  kprof::publish(kprof::activity::holding, l->name);
  simple_unlock(&l->interlock);
  return true;
}

void lock_sleepable(lock_t l, bool can_sleep) {
  simple_lock(&l->interlock);
  l->can_sleep = can_sleep;
  simple_unlock(&l->interlock);
}

void lock_set_recursive(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->write_holder != me) {
    fail_locked(l, std::string("lock_set_recursive without write hold on ") + l->name);
  }
  l->recursion_thread = me;
  simple_unlock(&l->interlock);
}

void lock_clear_recursive(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->recursion_thread != me) {
    fail_locked(l, std::string("lock_clear_recursive by non-holder on ") + l->name);
  }
  if (l->recursion_depth != 0) {
    fail_locked(l, std::string("lock_clear_recursive with nested holds on ") + l->name);
  }
  l->recursion_thread = nullptr;
  simple_unlock(&l->interlock);
}

void lock_set_writer_priority(lock_t l, bool on) {
  simple_lock(&l->interlock);
  l->writer_priority = on;
  simple_unlock(&l->interlock);
}

void lock_set_mach25_try_upgrade_bug(lock_t l, bool on) {
  simple_lock(&l->interlock);
  l->mach25_try_upgrade_bug = on;
  simple_unlock(&l->interlock);
}

complex_lock_stats lock_stats(lock_t l) {
  simple_lock(&l->interlock);
  complex_lock_stats s = l->stats;
  simple_unlock(&l->interlock);
  return s;
}

}  // namespace mach
