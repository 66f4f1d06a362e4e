// Stall watchdog — the machlock analogue of Linux's softlockup / hung-task
// detectors.
//
// The paper's failure modes (section 5's ordering deadlocks, section 7's
// barrier deadlock, section 7.1's recursive-lock deadlock) all present the
// same way at runtime: a thread stops making progress while waiting for
// something. The watchdog watches for exactly that, from the monitor
// thread (kprof's sampler, prof/kprof.h), across three wait classes:
//
//   * simple_spin    — a simple-lock acquisition spinning past its deadline
//                      (the holder is wedged or the lock leaked);
//   * thread_blocked — a thread suspended in assert_wait/thread_block past
//                      its deadline (a lost wakeup or an abandoned event);
//   * writer_wait    — a complex-lock writer (or upgrader) starved past its
//                      deadline (readers never drain).
//
// Each waiting thread publishes its current wait in its kprof slot
// (prof/kprof.h) via a seqlock protocol; every monitor tick scans the
// slots and, when a wait exceeds its class deadline, composes a trip
// report: the stalled thread and resource, the resource's holder (for
// locks), the wait-graph's held-lock dump and cycle report (when deadlock
// tracing is on), the lockstat top table, and the recent ktrace tail (when
// tracing is on) — then optionally panics.
//
// Cost model: the lock probe (sync/lock_probe.h) calls the watchdog ONLY
// from wait slow paths (a contended acquisition, an actual suspension),
// and only while its bit in probe_mask is set; the uncontended fast paths
// never reach it.
//
// Enable programmatically (watchdog::instance().start(cfg)) or via the
// environment through trace_session: MACHLOCK_WATCHDOG=1 with optional
// MACHLOCK_WATCHDOG_{SPIN,BLOCK,WRITER}_MS and
// MACHLOCK_WATCHDOG_PANIC=1. See docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>

namespace mach {

enum class stall_kind : int { none = 0, simple_spin, thread_blocked, writer_wait };
const char* to_string(stall_kind k) noexcept;

namespace watchdog_detail {
// Publish "the current thread is now waiting on `resource`". Nested waits
// (a starved writer that sleeps through the event system) keep the
// outermost entry — it names the real stall.
void note_wait_begin(stall_kind k, const void* resource, const char* name) noexcept;
// Retire the matching begin; the probe calls it for every begin it made,
// even if the watchdog stopped mid-wait.
void note_wait_end() noexcept;
// The deadline scan; the monitor thread runs it every tick while the
// watchdog is armed.
void scan();
}  // namespace watchdog_detail

struct watchdog_config {
  std::chrono::milliseconds spin_deadline{250};
  std::chrono::milliseconds block_deadline{2000};
  std::chrono::milliseconds writer_deadline{1000};
  bool panic_on_trip = false;
  // Report sink; default writes the report to stderr. Runs on the monitor
  // thread, so a trip arrives within its deadline plus one tick.
  std::function<void(const std::string& report)> on_trip;
};

// Config from MACHLOCK_WATCHDOG_* environment variables (defaults above).
watchdog_config watchdog_config_from_env();

class watchdog {
 public:
  static watchdog& instance() noexcept;

  void start(const watchdog_config& cfg = {});
  void stop();
  bool running() const noexcept;

  std::uint64_t trips() const noexcept;
  std::string last_report() const;

 private:
  friend void watchdog_detail::scan();
  watchdog() = default;
  struct impl;
  impl& self() const;
};

}  // namespace mach
