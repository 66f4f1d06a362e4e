// ktrace — kernel-wide event tracing.
//
// The lockstat registry (sync/lockstat.h) can *count* lock events; it
// cannot show WHEN they happened, HOW LONG a lock was held, or WHO waited
// on whom. ktrace is the timeline complement: every thread owns a
// lock-free single-producer/single-consumer ring of fixed-size trace
// records, tracepoints in the sync/sched/kern/smp/vm/ipc layers append to
// the current thread's ring, and a collector merges all rings into one
// time-ordered stream that the exporters (trace/trace_export.h) render as
// Chrome trace_event JSON or plain text.
//
// Cost model:
//   * compiled in unconditionally, like the rest of the debug discipline;
//   * runtime-disabled by default: every tracepoint is one relaxed atomic
//     load and a predicted-not-taken branch — no clock reads, no stores;
//   * when enabled, a tracepoint is one now_nanos() plus a handful of
//     plain stores into the thread-local ring (no locks, no allocation
//     after the ring exists).
//
// Ring discipline: the owning thread is the only writer; the ring keeps
// the most recent `capacity` records and wraparound DROPS THE OLDEST,
// tallying a per-thread drop count so a truncated trace is never mistaken
// for a complete one. Collect after ktrace::disable() (and after joining
// writers) for a tear-free snapshot; collecting concurrently is safe for
// the newest records but may observe partially overwritten oldest slots.
//
// Record args: `name` must point to storage that outlives collection —
// lock and object names in this codebase are string literals, which is
// exactly why the record can carry the pointer instead of copying.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.h"
#include "sync/lock_probe.h"

namespace mach {

// What happened. Span kinds record the END timestamp in `nanos` and the
// duration in `arg2`, so the exporters can reconstruct [end-dur, end]
// intervals; instant kinds are points.
enum class trace_kind : std::uint16_t {
  none = 0,  // zeroed slot (never emitted)

  // sync — arg1 = lock address, arg2 = duration (ns)
  simple_lock_wait,    // span: spin time until a contended acquire
  simple_lock_held,    // span: hold time, emitted at unlock
  complex_read_wait,   // span: blocked/spun time until lock_read returned
  complex_write_wait,  // span: ... until lock_write returned
  complex_upgrade_wait,  // span: ... until an upgrade drained the readers
  complex_write_held,  // span: write-side hold time, emitted at release

  // sched — arg1 = event address
  assert_wait_ev,   // instant: wait declared
  thread_blocked,   // span: arg2 = ns from thread_block to wakeup (0 if
                    // short-circuited by an early wakeup)
  thread_wakeup_ev, // instant: arg2 = waiters actually woken

  // kern — arg1 = the count's address ("the portion containing its
  // reference count" — the policy object inside kobject, or a bare
  // refcount); arg2 = resulting reference count where the policy knows it
  // exactly (striped fast paths emit 0 for takes / 1 for non-final puts)
  ref_take,        // instant: reference cloned
  ref_release,     // instant: reference released (arg2 == 0: destroyed)
  ref_deactivate,  // instant: object deactivated (arg2 = 1 if this call)

  // smp / vm — the TLB-shootdown barrier phases
  barrier_round,       // span on the initiator: arg1 = participant mask
  barrier_isr,         // span on a participant: arg1 = cpu id, the time
                       // parked at interrupt level inside the ISR
  shootdown_round,     // span on the initiator: arg1 = va, whole protocol
  shootdown_posted,    // instant: arg1 = target cpu, arg2 = va
  shootdown_excluded,  // instant: arg1 = cpu removed by the special logic

  // ipc — port → object translation and dispatch
  rpc_translate,  // span: arg1 = port name, name = "translate"
  rpc_dispatch,   // span: arg1 = op number, name = operation name

  // span — kspan request-scoped causal tracing (trace/kspan.h). All span
  // records additionally carry the packed context in trace_record::ctx.
  span_begin,       // instant: a span scope opened; arg1 = 1 for a request
                    // root (0 for an adopted leg), name = span kind
  span_end,         // span: the scope's extent; arg1 = root flag, name = kind
  span_send,        // instant: message enqueued; arg1 = message's span ctx,
                    // arg2 = destination port address
  span_recv,        // instant: message dequeued; arg1 = message's span ctx,
                    // arg2 = queue-wait ns (dequeue - enqueue)
  span_unblock,     // instant: this thread's block ended by a wakeup whose
                    // deliverer carried arg1 = the waker's span ctx;
                    // arg2 = the event address
  span_blocked_on,  // instant: the active span is entering a lock slow
                    // path; name = lock name, arg1 = holder token (may be
                    // 0), arg2 = lock address
  span_bind,        // instant: once per thread; arg1 = the thread's token,
                    // binding tokens to ring tids for offline holder naming

  kind_count
};

// One fixed-size ring slot.
struct trace_record {
  std::uint64_t nanos = 0;  // end-of-span or instant timestamp
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;
  // The emitting thread's kspan context (trace id << 32 | span id), stamped
  // by emit_slow; 0 when no span was active. Attributes EVERY record — lock
  // waits, blocked intervals, refcount traffic — to the request that
  // incurred it, which is what tools/span_report aggregates.
  std::uint64_t ctx = 0;
  const char* name = nullptr;  // static string; may be null
  trace_kind kind = trace_kind::none;
};

// Kind metadata shared by the exporters and reports.
const char* trace_kind_label(trace_kind k) noexcept;
const char* trace_kind_category(trace_kind k) noexcept;  // sync/sched/kern/vm/ipc
bool trace_kind_is_span(trace_kind k) noexcept;

namespace ktrace {

namespace detail {
// Appends to the calling thread's ring, creating it on first use.
void emit_slow(trace_kind kind, const char* name, std::uint64_t arg1, std::uint64_t arg2,
               std::uint64_t nanos) noexcept;
}  // namespace detail

// The global switch, ktrace's bit in probe_mask. enabled() is the
// tracepoint fast path: a single relaxed load, so disabled tracing stays
// near-free.
inline bool enabled() noexcept { return probe_on(probe_ktrace); }
inline void enable() noexcept { probe_set(probe_ktrace, true); }
inline void disable() noexcept { probe_set(probe_ktrace, false); }

// Record an instant event, stamped now. No-op when disabled.
inline void emit(trace_kind kind, const char* name = nullptr, std::uint64_t arg1 = 0,
                 std::uint64_t arg2 = 0) noexcept {
  if (!enabled()) return;
  detail::emit_slow(kind, name, arg1, arg2, now_nanos());
}

// Record a span that ended at `end_nanos` and lasted `duration` ns (kept
// in arg2 by convention). Callers time the span themselves so the clock is
// read once per endpoint. No-op when disabled.
inline void emit_span(trace_kind kind, const char* name, std::uint64_t arg1,
                      std::uint64_t duration, std::uint64_t end_nanos) noexcept {
  if (!enabled()) return;
  detail::emit_slow(kind, name, arg1, duration, end_nanos);
}

// Name the calling thread's ring in collected output (kthread::spawn does
// this automatically). Safe to call before the ring exists.
void set_thread_name(std::string name);

// Ring capacity (records per thread) for rings created AFTER the call;
// existing rings keep their size. Tests shrink this to exercise wraparound.
void set_default_ring_capacity(std::size_t records);
std::size_t default_ring_capacity() noexcept;

// Zero every ring (head, drop counts) without deallocating, so live
// threads' cached ring pointers stay valid. Call with tracing disabled and
// writers quiescent.
void reset();

// --- collection ---

struct thread_info {
  std::uint32_t tid = 0;       // stable small id (ring index + 1)
  std::string name;            // last set_thread_name, or "thread-<tid>"
  std::uint64_t written = 0;   // records ever emitted
  std::uint64_t dropped = 0;   // overwritten by wraparound
};

struct collected_event {
  trace_record rec;
  std::uint32_t tid = 0;
};

struct trace_collection {
  std::vector<thread_info> threads;
  std::vector<collected_event> events;  // merged, non-decreasing in rec.nanos
  std::uint64_t total_dropped() const noexcept;
};

// Snapshot every ring and merge into one time-ordered stream. See the
// header comment for the consistency contract.
trace_collection collect();

}  // namespace ktrace
}  // namespace mach
