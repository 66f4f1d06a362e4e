// The canonical machlock metric set — one instance of every kernel-wide
// kmon metric, grouped by subsystem. Subsystems update these directly
// (`kmet().sched_blocks.inc()`); each update is one relaxed load while
// metrics are disabled (see metrics/kmon.h for the cost model).
//
// `g_kmetrics` is a plain global (not a function-local static) so the hot
// update path is a direct reference with no init-guard check. Updates that
// could run during static initialization are safe anyway: kmon is disabled
// until main() (trace_session / an explicit kmon::enable()), so every
// pre-main update takes the one-relaxed-load early return.
//
// The sync subsystem is bridged from lockstat rather than counted twice:
// callback gauges evaluate lock_registry totals at snapshot time, so lock
// hot paths carry no additional instrumentation.
#pragma once

#include "metrics/kmon.h"

namespace mach {

struct kmetrics_t {
  kmetrics_t();  // wires the callback gauges (kern/sync bridges)

  // --- sched ---
  kmon::counter sched_blocks{"machlock_sched_blocks_total",
                             "thread_block calls that suspended (context switches)"};
  kmon::counter sched_blocks_short_circuited{
      "machlock_sched_blocks_short_circuited_total",
      "thread_block calls short-circuited by an early wakeup (non-blocking switches)"};
  kmon::counter sched_wakeups{"machlock_sched_wakeups_total",
                              "waiters actually woken by thread_wakeup/clear_wait"};
  kmon::counter sched_wakeups_no_waiter{"machlock_sched_wakeups_no_waiter_total",
                                        "thread_wakeup calls that found no waiter"};
  kmon::gauge sched_wait_queue_depth{"machlock_sched_wait_queue_depth",
                                     "threads currently queued on event wait queues"};
  kmon::gauge sched_threads_live{"machlock_sched_threads_live",
                                 "spawned kthreads currently running"};
  kmon::histogram sched_block_nanos{"machlock_sched_block_nanos",
                                    "blocked time from thread_block to wakeup"};

  // --- ipc ---
  kmon::counter ipc_messages{"machlock_ipc_messages_total", "messages accepted by port::send"};
  kmon::counter ipc_translations{"machlock_ipc_translations_total",
                                 "port name -> port -> object translations in msg_rpc"};
  kmon::counter ipc_rpcs{"machlock_ipc_rpcs_total", "msg_rpc calls"};
  kmon::gauge ipc_rpc_in_flight{"machlock_ipc_rpc_in_flight", "msg_rpc calls currently executing"};
  kmon::histogram ipc_rpc_nanos{"machlock_ipc_rpc_nanos",
                                "msg_rpc latency, translation through dispatch"};

  // --- vm ---
  kmon::counter vm_shootdown_rounds{"machlock_vm_shootdown_rounds_total",
                                    "TLB shootdown protocol rounds initiated"};
  kmon::counter vm_shootdown_cpus_excluded{
      "machlock_vm_shootdown_cpus_excluded_total",
      "CPUs removed from shootdown rounds by the pmap special logic (sec. 7)"};
  kmon::counter vm_pageout_scans{"machlock_vm_pageout_scans_total",
                                 "pageout daemon scan passes below the low-water mark"};
  kmon::counter vm_pageout_evictions{"machlock_vm_pageout_evictions_total",
                                     "successful pageout reclaim passes over a map"};
  kmon::counter vm_pmap_enters{"machlock_vm_pmap_enters_total", "pmap translation insertions"};
  kmon::counter vm_pmap_removes{"machlock_vm_pmap_removes_total", "pmap translation removals"};
  kmon::counter vm_pv_operations{"machlock_vm_pv_operations_total",
                                 "pv-list (inverted mapping) bucket operations"};

  // --- kern ---
  kmon::counter kern_zalloc_allocs{"machlock_kern_zalloc_allocs_total", "zone element allocations"};
  kmon::counter kern_zalloc_frees{"machlock_kern_zalloc_frees_total", "zone element frees"};
  kmon::counter kern_zalloc_sleeps{"machlock_kern_zalloc_sleeps_total",
                                   "zone allocations that slept on exhaustion"};
  kmon::counter kern_ref_takes{"machlock_kern_ref_takes_total", "kobject references cloned"};
  kmon::counter kern_ref_releases{"machlock_kern_ref_releases_total",
                                  "kobject references released"};
  kmon::counter kern_deactivations{"machlock_kern_deactivations_total",
                                   "kobject deactivations (sec. 9)"};
  // Nothing increments these two: the striped count they measured is
  // gone. They stay only because perfbench's mcbench reads them, and
  // retire with its kern.lockref_slow_pct metric in the benchmark change
  // of ROADMAP item 1.
  kmon::counter kern_lockref_fast{"machlock_kern_lockref_fast_total",
                                  "unused, always zero (retired striped refcount fast path)"};
  kmon::counter kern_lockref_slow{"machlock_kern_lockref_slow_total",
                                  "unused, always zero (retired striped refcount slow path)"};
  kmon::callback_gauge kern_live_objects;  // kobject::live_objects() at snapshot

  // --- smp ---
  kmon::counter smp_barrier_rounds{"machlock_smp_barrier_rounds_total",
                                   "interrupt-barrier rounds completed"};
  kmon::counter smp_barrier_rounds_failed{"machlock_smp_barrier_rounds_failed_total",
                                          "interrupt-barrier rounds aborted or timed out"};
  kmon::counter smp_barrier_isr_parks{"machlock_smp_barrier_isr_parks_total",
                                      "participant ISR entries parked at interrupt level"};
  kmon::counter smp_spl_raises{"machlock_smp_spl_raises_total",
                               "splraise calls that raised the CPU priority level"};

  // --- svc (machcached traffic service, svc/machcached.h) ---
  kmon::counter svc_requests{"machlock_svc_requests_total",
                             "machcached requests served (GET+SET+DEL)"};
  kmon::counter svc_hits{"machlock_svc_hits_total", "machcached GET hits"};
  kmon::counter svc_misses{"machlock_svc_misses_total", "machcached GET misses"};
  kmon::counter svc_backpressure{"machlock_svc_backpressure_total",
                                 "machcached SETs refused on item-zone exhaustion"};
  kmon::histogram svc_serve_nanos{"machlock_svc_serve_nanos",
                                  "machcached server-side request service time"};

  // --- sync (bridged from lockstat at snapshot time) ---
  kmon::callback_gauge sync_acquisitions;
  kmon::callback_gauge sync_contended;

  // --- trace / kspan ---
  // Fed once per trace_session export with that session's ring-wraparound
  // total, so a truncated trace is visible in metrics, not just the stderr
  // summary line.
  kmon::counter trace_dropped{"machlock_trace_dropped_total",
                              "trace ring records lost to wraparound (tallied at session export)"};
  kmon::counter span_requests{"machlock_span_requests_total",
                              "kspan root request spans completed"};
  kmon::counter span_adoptions{"machlock_span_adoptions_total",
                               "kspan contexts adopted from received messages"};
  kmon::histogram span_queue_nanos{"machlock_span_queue_nanos",
                                   "port queue wait (enqueue to dequeue) for span-carrying messages"};
};

extern kmetrics_t g_kmetrics;
inline kmetrics_t& kmet() noexcept { return g_kmetrics; }

}  // namespace mach
