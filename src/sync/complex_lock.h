// Complex locks — the paper's Appendix B interface (sections 4 and 7.1).
//
// A complex lock is Mach's machine-independent lock implementing the
// Multiple protocol (multiple readers / single writer, with writers'
// priority to avoid starvation) plus two options:
//
//   Sleep:     waiters block via the event system instead of spinning, and
//              holders may block while holding the lock. Dynamically
//              switchable per lock (lock_sleepable). A waiter first polls
//              the lock lock_sleep_polls times (about 1 us) before it
//              sleeps, as Mach's kern/lock.c spins for lock_wait_time.
//   Recursive: a single holder may recursively acquire the lock
//              (lock_set_recursive / lock_clear_recursive). Must be held
//              for write to set; a later downgrade to read prohibits
//              recursive write acquisition and upgrades.
//
// Semantics carried from the paper:
//   * writers' priority — "readers may not be added to a lock held for
//     reading in the presence of an outstanding write request";
//   * upgrades are favored over writes; a second concurrent upgrade
//     request FAILS and loses its read hold (lock_read_to_write returns
//     TRUE on failure);
//   * downgrades (lock_write_to_read) cannot fail;
//   * the recursive holder's requests are not blocked by pending write or
//     upgrade requests;
//   * the internal state of every complex lock is protected by a simple
//     lock, so the only machine dependency is the simple lock itself.
//
// Extension for experiment E3: writers' priority can be disabled per lock
// (lock_set_writer_priority) to measure the starvation it prevents.
//
// Reader bias (BRAVO, Dice and Kogan, USENIX ATC 2019; DESIGN.md decision
// 12): while a lock's read_bias is on, a reader publishes itself in a
// global table of visible-reader slots and takes no interlock, so a read
// hold writes no line other readers share. A writer turns the bias off
// under the interlock and waits for the lock's slots to drain, then
// inhibits the bias for lock_bias_inhibit_reads interlocked reads. Every
// Appendix-B path above is the slow path, unchanged.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/lockstat.h"
#include "sync/simple_lock.h"

namespace mach {

// Pre-sleep poll budget of a Sleep-mode wait: the number of backoff pauses
// (4 + 8 + 16 cpu_relax, each followed by an interlock round trip; about
// 1 us) a waiter spends re-checking the lock before it sleeps through the
// event system. It must stay well below the cost of a sleep and wakeup,
// which the poll exists to avoid for short holds (DESIGN.md decision 8).
inline constexpr std::uint64_t lock_sleep_polls = 3;

// Interlocked reads after a revocation before one turns the reader bias
// back on. A count, not a time: a clock read per interlocked read cost
// more than the revocations it saved (DESIGN.md decision 12).
inline constexpr std::uint8_t lock_bias_inhibit_reads = 2;

// Cumulative per-lock statistics, mutated under the interlock (so reading
// them while the lock is in active use gives a consistent-enough snapshot
// for reporting, and updating them costs no extra synchronization).
struct complex_lock_stats {
  std::uint64_t read_acquisitions = 0;  // interlocked reads; biased ones count only in lockstat
  std::uint64_t write_acquisitions = 0;
  std::uint64_t recursive_acquisitions = 0;
  std::uint64_t upgrades_succeeded = 0;
  std::uint64_t upgrades_failed = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t sleeps = 0;  // waits that went through the event system
  std::uint64_t spins = 0;   // spin-mode interlock-release/reacquire iterations
  std::uint64_t polls = 0;   // Sleep-mode polls before sleeping (lock_sleep_polls)
};

// Storage for a single complex lock (the paper's C type lock_data_t).
struct lock_data_t {
  simple_lock_data_t interlock{"complex-interlock", /*track=*/false};

  // Protected by interlock:
  bool want_write = false;    // a writer holds, or is draining readers
  bool want_upgrade = false;  // an upgrader holds, or is draining readers
  bool waiting = false;       // someone is blocked on this lock (sleep mode)
  bool can_sleep = true;      // Sleep option
  bool writer_priority = true;  // ablation knob (E3); true is Mach behaviour
  // Historical-fidelity knob: Appendix B.3 notes "The Mach 2.5
  // implementation of [lock_try_read_to_write] contains a bug such that it
  // will block even if the Sleep option is disabled". Off by default (we
  // implement the documented-correct behaviour); enable to reproduce 2.5.
  bool mach25_try_upgrade_bug = false;
  // Reader bias: read without the interlock while set. Cleared under the
  // interlock by every write-side request, set again by an interlocked
  // read once bias_inhibit (interlock-protected) has counted down.
  std::atomic<bool> read_bias{false};
  std::uint8_t bias_inhibit = 0;
  int read_count = 0;  // interlocked read holds; biased ones sit in the reader table

  // Recursive option (paper sec. 4): the designated recursion holder and
  // the extra depth of its nested write acquisitions.
  const void* recursion_thread = nullptr;
  int recursion_depth = 0;

  // Debug/tracking:
  const void* write_holder = nullptr;  // thread holding for write/upgrade
  const char* name;
  complex_lock_stats stats;
  // Name-wide acquisition/contention counters and hold/wait profile
  // (sync/lockstat.h), bumped under the interlock or, for a biased read,
  // by the reader on its own way's line. The wait profile covers
  // read, write, and upgrade waits; the hold profile covers write-side
  // holds (a read hold is shared by many threads at once, so per-holder
  // read spans are not tracked).
  lock_stat_class* stat_class;
  // Start of the current write-side hold while ktrace is enabled, else 0.
  std::uint64_t write_acquire_nanos = 0;

  lock_data_t() : lock_data_t("complex-lock") {}
  explicit lock_data_t(const char* n) : name(n), stat_class(lock_stat_class::find(n, true)) {}
  lock_data_t(const lock_data_t&) = delete;
  lock_data_t& operator=(const lock_data_t&) = delete;
};
static_assert(sizeof(lock_data_t) <= 192, "a complex lock is its state plus an interlock");

// All interface routines take a pointer, as in the paper.
using lock_t = lock_data_t*;

// Initialize; can_sleep selects the Sleep option. "Locks without the sleep
// option cannot be held during blocking operations or context switches."
void lock_init(lock_t l, bool can_sleep, const char* name = "complex-lock");

// --- Locking and unlocking (Appendix B.2) ---
void lock_read(lock_t l);
void lock_write(lock_t l);
// Upgrade read -> write. Returns TRUE if the upgrade FAILED (another
// upgrade was pending); on failure the read lock has been released.
bool lock_read_to_write(lock_t l);
// Downgrade write -> read. Cannot fail.
void lock_write_to_read(lock_t l);
// Release however the lock is held (single writer or one of the readers).
void lock_done(lock_t l);

// --- Lock attempts (Appendix B.3) ---
bool lock_try_read(lock_t l);
bool lock_try_write(lock_t l);
// Attempt upgrade; may block waiting for other readers to drain, but does
// NOT drop the read lock if the upgrade would deadlock (returns FALSE
// with the read hold intact). Note: Appendix B.3 reports the Mach 2.5
// implementation blocked even with Sleep disabled; we implement the
// documented-correct behaviour (spin-drain when Sleep is off).
bool lock_try_read_to_write(lock_t l);

// --- Lock options (Appendix B.4) ---
void lock_sleepable(lock_t l, bool can_sleep);
// Enable the Recursive option for the calling thread; the lock must be
// held for write.
void lock_set_recursive(lock_t l);
// Clear the Recursive option; caller must be the recursion holder.
void lock_clear_recursive(lock_t l);

// Ablation knob (not in the paper's interface): disable writers' priority
// so experiment E3 can measure the starvation it prevents.
void lock_set_writer_priority(lock_t l, bool on);

// Historical-fidelity knob: reproduce the Mach 2.5 lock_try_read_to_write
// bug (blocks through the event system even when Sleep is disabled).
void lock_set_mach25_try_upgrade_bug(lock_t l, bool on);

// Snapshot of the statistics (taken under the interlock).
complex_lock_stats lock_stats(lock_t l);

// --- RAII guards (modern call sites; CP.20) ---
class read_lock_guard {
 public:
  explicit read_lock_guard(lock_data_t& l) : lock_(&l) { lock_read(lock_); }
  ~read_lock_guard() {
    if (lock_ != nullptr) lock_done(lock_);
  }
  read_lock_guard(const read_lock_guard&) = delete;
  read_lock_guard& operator=(const read_lock_guard&) = delete;
  void unlock() {
    lock_done(lock_);
    lock_ = nullptr;
  }

 private:
  lock_data_t* lock_;
};

class write_lock_guard {
 public:
  explicit write_lock_guard(lock_data_t& l) : lock_(&l) { lock_write(lock_); }
  ~write_lock_guard() {
    if (lock_ != nullptr) lock_done(lock_);
  }
  write_lock_guard(const write_lock_guard&) = delete;
  write_lock_guard& operator=(const write_lock_guard&) = delete;
  void unlock() {
    lock_done(lock_);
    lock_ = nullptr;
  }

 private:
  lock_data_t* lock_;
};

}  // namespace mach
