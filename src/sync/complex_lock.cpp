#include "sync/complex_lock.h"

#include "base/backoff.h"
#include "base/panic.h"
#include "metrics/kmon.h"
#include "sched/event.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"

namespace mach {
namespace {

// --- statistics (interlock held) ---

// Count an acquisition in the lock's own stats (lock_stats) and its name's
// (lockstat).
inline void count_acquisition(lock_t l, std::uint64_t& counter) {
  ++counter;
  l->stat_class->count_acquisition();
}

// What the lock probe is told about `l`.
probe_site site(lock_t l) { return {l, l->name, l->stat_class, &l->write_acquire_nanos}; }

// One acquisition's wait for the lock state to change. Interlock held
// throughout. The first wait() counts the contended acquisition once and
// tells the probe; done() closes the wait before the acquisition is
// recorded.
//
// Sleep mode first polls: for its first lock_sleep_polls waits per
// acquisition (counted by the backoff) it releases the interlock, backs
// off, and reacquires, so a hold of a few hundred ns costs no sleep and
// wakeup. After that it blocks through the event system (the lock's own
// address is the event, as in Mach's kern/lock.c). Spin mode always backs
// off. A poll never sets `waiting`, so releases wake only sleepers.
class lock_waiter {
 public:
  lock_waiter(lock_t l, probe_kind k, const void* me) : l_(l), kind_(k), me_(me) {}

  void wait(bool force_sleep = false) {
    if (!waited_) {
      waited_ = true;
      l_->stat_class->count_contended();
      note_ = lock_probe::wait_begin(kind_, site(l_), me_, l_->write_holder);
    }
    if (force_sleep || (l_->can_sleep && bo_.pauses() >= lock_sleep_polls)) {
      l_->waiting = true;
      ++l_->stats.sleeps;
      assert_wait(l_);
      simple_unlock(&l_->interlock);
      thread_block();
      simple_lock(&l_->interlock);
    } else {
      ++(l_->can_sleep ? l_->stats.polls : l_->stats.spins);
      simple_unlock(&l_->interlock);
      bo_.pause();
      simple_lock(&l_->interlock);
    }
  }

  void done() { lock_probe::wait_end(kind_, site(l_), me_, note_); }

 private:
  lock_t l_;
  probe_kind kind_;
  const void* me_;
  backoff bo_;
  bool waited_ = false;
  wait_note note_;
};

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

// --- reader bias (DESIGN.md decision 12) ---

// The visible-reader table: one cacheline-aligned row per kmon way, each
// a set of slots a biased reader publishes its lock in. A reader uses
// slot bias_slot(lock) of its own way's row, so readers on different ways
// write different lines, and a writer checks one slot per row.
constexpr unsigned bias_slots = 64;
struct alignas(cacheline_size) bias_row {
  std::atomic<lock_data_t*> slot[bias_slots];
};
constinit bias_row visible_readers[kmon::num_ways];
// The slots of its way's row the calling thread holds a biased read in.
constinit thread_local std::uint64_t t_biased = 0;

unsigned bias_slot(const lock_data_t* l) {
  return static_cast<unsigned>((reinterpret_cast<std::uintptr_t>(l) * 0x9E3779B97F4A7C15ull) >>
                               58);
}

std::atomic<lock_data_t*>& own_slot(const lock_data_t* l) {
  return visible_readers[kmon::detail::way_index()].slot[bias_slot(l)];
}

// Does the calling thread hold `l` through its slot?
bool holds_biased(const lock_data_t* l) {
  return (t_biased >> bias_slot(l) & 1) != 0 &&
         own_slot(l).load(std::memory_order_relaxed) == l;
}

// Empty the calling thread's slot for `l`.
void clear_own_slot(lock_t l) {
  t_biased &= ~(std::uint64_t{1} << bias_slot(l));
  own_slot(l).store(nullptr, std::memory_order_seq_cst);
}

// Does any row hold a biased read of `l`? The drain predicate's addition.
bool readers_visible(const lock_data_t* l) {
  const unsigned s = bias_slot(l);
  for (const bias_row& r : visible_readers) {
    if (r.slot[s].load(std::memory_order_seq_cst) == l) return true;
  }
  return false;
}

// Would a new (non-recursive) reader have to wait? With writers' priority
// (Mach behaviour) any outstanding write or upgrade request holds new
// readers off, guaranteeing the writer eventually gets the drained lock.
// Without it, readers keep piling in while any reader, biased or not,
// holds the lock — the starvation experiment E3 measures.
bool reader_must_wait(const lock_data_t* l) {
  if (!l->want_write && !l->want_upgrade) return false;
  return l->writer_priority || (l->read_count == 0 && !readers_visible(l));
}

// Interlock held, a write-side request pending: no new biased reader may
// enter, and interlocked reads leave the bias off for a while. The
// seq_cst store pairs with a reader's seq_cst re-check after it publishes
// its slot: either the reader sees the bias off, or the writer sees the
// slot.
void revoke_bias(lock_t l) {
  l->bias_inhibit = lock_bias_inhibit_reads;
  if (l->read_bias.load(std::memory_order_relaxed)) {
    l->read_bias.store(false, std::memory_order_seq_cst);
  }
}

// Interlock held, after an interlocked read hold: turn the bias back on
// once the inhibit count has run out and nothing holds it off.
void rebias(lock_t l) {
  if (l->read_bias.load(std::memory_order_relaxed)) return;
  if (l->bias_inhibit > 0) {
    --l->bias_inhibit;
  } else if (!l->want_write && !l->want_upgrade && l->recursion_thread == nullptr) {
    l->read_bias.store(true, std::memory_order_release);
  }
}

// Wake a writer that may sleep on a slot the caller just emptied, when
// the bias is off (a writer turned it off and may have seen the slot).
void wake_after_slot_cleared(lock_t l) {
  if (l->read_bias.load(std::memory_order_seq_cst)) return;
  simple_lock(&l->interlock);
  lock_wakeup(l);
  simple_unlock(&l->interlock);
}

// A read hold without the interlock: publish `l` in the caller's slot and
// keep it if the bias is still on. Not taken while an instrument listens
// to read holds (they would miss it) or when the slot is in use (by
// another thread of this way, or by this thread for another lock or a
// nested read). The hold is counted once, in the name-wide lockstat.
bool biased_read(lock_t l) {
  if (!l->read_bias.load(std::memory_order_relaxed)) return false;
  if ((lock_probe::listeners() & route(probe_kind::complex_read).hold) != 0) return false;
  std::atomic<lock_data_t*>& slot = own_slot(l);
  lock_data_t* empty = nullptr;
  if (!slot.compare_exchange_strong(empty, l, std::memory_order_seq_cst)) return false;
  if (!l->read_bias.load(std::memory_order_seq_cst)) {
    slot.store(nullptr, std::memory_order_seq_cst);
    wake_after_slot_cleared(l);
    return false;
  }
  t_biased |= std::uint64_t{1} << bias_slot(l);
  l->stat_class->count_acquisition();
  return true;
}

// Interlock held: turn the caller's biased hold of `l`, if any, into an
// interlocked one, so an upgrade can give it up under the interlock.
void count_biased_hold(lock_t l) {
  if (!holds_biased(l)) return;
  ++l->read_count;
  clear_own_slot(l);
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
  l->read_bias.store(false, std::memory_order_relaxed);
  l->bias_inhibit = 0;
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
  if (biased_read(l)) return;
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
  lock_waiter w(l, probe_kind::complex_read, me);
  while (reader_must_wait(l)) w.wait();
  w.done();
  ++l->read_count;
  count_acquisition(l, l->stats.read_acquisitions);
  rebias(l);
  lock_probe::acquired(probe_kind::complex_read, site(l), me);
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
  lock_waiter w(l, probe_kind::complex_write, me);
  // Wait our turn behind other writers/upgraders...
  while (l->want_write || l->want_upgrade) w.wait();
  l->want_write = true;  // commits us: no new readers may be added
  revoke_bias(l);
  // ...then drain existing readers, biased ones included, yielding to
  // upgrades (upgrades are favored over writes to avoid deadlocking a
  // reader that must upgrade).
  while (l->read_count > 0 || l->want_upgrade || readers_visible(l)) w.wait();
  w.done();
  l->write_holder = me;
  count_acquisition(l, l->stats.write_acquisitions);
  lock_probe::acquired(probe_kind::complex_write, site(l), me);
  simple_unlock(&l->interlock);
}

bool lock_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  count_biased_hold(l);
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
    lock_probe::released(probe_kind::complex_read, site(l), me);
    lock_wakeup(l);  // our released read hold may unblock the winner
    simple_unlock(&l->interlock);
    return true;  // TRUE = upgrade failed
  }
  l->want_upgrade = true;
  revoke_bias(l);
  lock_waiter w(l, probe_kind::complex_upgrade, me);
  while (l->read_count > 0 || readers_visible(l)) w.wait();
  w.done();
  l->write_holder = me;
  ++l->stats.upgrades_succeeded;
  lock_probe::acquired(probe_kind::complex_write, site(l), me);
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
  // The write-side hold ends at the downgrade and a read hold begins.
  lock_probe::released(probe_kind::complex_write, site(l), me);
  lock_probe::acquired(probe_kind::complex_read, site(l), me);
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
  if (holds_biased(l)) {
    clear_own_slot(l);
    wake_after_slot_cleared(l);
    return;
  }
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  if (l->read_count > 0) {
    --l->read_count;
    if (l->read_count == 0 || l->recursion_thread != me) {
      lock_probe::released(probe_kind::complex_read, site(l), me);
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
    lock_probe::released(probe_kind::complex_write, site(l), me);
  } else {
    if (!(l->want_write && l->write_holder == me)) {
      fail_locked(l, std::string("lock_done of unheld lock ") + l->name);
    }
    l->want_write = false;
    l->write_holder = nullptr;
    lock_probe::released(probe_kind::complex_write, site(l), me);
  }
  lock_wakeup(l);
  simple_unlock(&l->interlock);
}

bool lock_try_read(lock_t l) {
  if (biased_read(l)) return true;
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
  rebias(l);
  lock_probe::acquired(probe_kind::complex_read, site(l), me);
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
  revoke_bias(l);
  if (readers_visible(l)) {
    simple_unlock(&l->interlock);
    return false;
  }
  l->want_write = true;
  l->write_holder = me;
  count_acquisition(l, l->stats.write_acquisitions);
  lock_probe::acquired(probe_kind::complex_write, site(l), me);
  simple_unlock(&l->interlock);
  return true;
}

bool lock_try_read_to_write(lock_t l) {
  const void* me = current_thread_token();
  simple_lock(&l->interlock);
  count_biased_hold(l);
  if (l->read_count <= 0) fail_locked(l, std::string("try-upgrade without read hold on ") + l->name);
  if (l->want_upgrade || l->recursion_thread == me) {
    // Would deadlock (or is a recursive read): keep the read lock and
    // report failure — unlike lock_read_to_write, nothing is dropped.
    simple_unlock(&l->interlock);
    return false;
  }
  l->want_upgrade = true;
  --l->read_count;
  revoke_bias(l);
  lock_waiter w(l, probe_kind::complex_upgrade, me);
  // Appendix B.3: Mach 2.5's implementation blocked here even with the
  // Sleep option disabled; reproduce that when the compat knob is set.
  while (l->read_count > 0 || readers_visible(l)) {
    w.wait(/*force_sleep=*/l->mach25_try_upgrade_bug);
  }
  w.done();
  l->write_holder = me;
  ++l->stats.upgrades_succeeded;
  lock_probe::acquired(probe_kind::complex_write, site(l), me);
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
