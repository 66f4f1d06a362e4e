// lock_doctor: the diagnostic tooling in action — lockstat (Appendix A's
// "debugging and statistics information") and the wait-for-graph deadlock
// detector (the instrument behind the paper's section 5/7 deadlock
// analyses).
//
// Phase 1 runs a mixed workload and prints the most contended locks.
// Phase 2 constructs a live ABBA deadlock between two simple locks, lets
// the detector name the cycle, and unwinds it.
// Phase 3 turns on ktrace and replays the E6 recursive-lock deadlock
// (vm_map_pageable under memory shortage, sec. 7.1), then prints the
// reconstructed timeline: who blocked on what, and for how long.
// Phase 5 enables kmon, reruns a short mixed workload, and prints the
// kernel-wide metric top — the system view the per-lock tools lack.
// Phase 4 does the same for an E10 TLB-shootdown round (sec. 7), showing
// the initiator's round span bracketing every participant's ISR park.
#include <atomic>
#include <cstdio>
#include <iostream>

#include "harness/top_tables.h"
#include "metrics/kmon.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "sync/lockstat.h"
#include "trace/ktrace.h"
#include "trace/trace_export.h"
#include "vm/shootdown.h"
#include "vm/vm_pageable.h"

using namespace mach;
using namespace std::chrono_literals;

int main() {
  std::printf("machlock lock_doctor example\n============================\n\n");
  ktrace::set_thread_name("main");  // label this thread in phase 3/4 timelines

  // --- Phase 1: lockstat over a mixed workload ---
  // Trace the workload so the lockstat table's hold/wait p50/p99 columns populate
  // (they are clock-gated on ktrace; untraced runs show "-").
  ktrace::enable();
  simple_lock_data_t hot("hot-simple-lock");
  simple_lock_data_t cold("cold-simple-lock");
  lock_data_t table_lock;
  lock_init(&table_lock, true, "hot-complex-lock");

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < 4; ++t) {
    workers.push_back(kthread::spawn("worker" + std::to_string(t), [&, t] {
      long sink = 0;
      while (!stop.load()) {
        simple_lock(&hot);  // everyone hammers this one
        for (int i = 0; i < 50; ++i) sink += i;
        simple_unlock(&hot);
        if (t == 0) {  // only one thread touches the cold lock
          simple_lock(&cold);
          ++sink;
          simple_unlock(&cold);
        }
        if (t % 2 == 0) {
          read_lock_guard g(table_lock);
        } else {
          write_lock_guard g(table_lock);
        }
      }
      (void)sink;
    }));
  }
  std::this_thread::sleep_for(300ms);
  stop.store(true);
  for (auto& w : workers) w->join();
  ktrace::disable();
  std::printf("phase 1: workload done — lockstat report (hold/wait from the trace):\n");
  print_lockstat_top(lock_registry::instance().snapshot(), 6);

  // --- Phase 2: a live deadlock, named by the detector ---
  std::printf("\nphase 2: constructing an ABBA deadlock on purpose...\n");
  deadlock_tracing_scope tracing;
  wait_graph::instance().name_thread(current_thread_token(), "main");
  simple_lock_data_t lock_a("lock-A");
  simple_lock_data_t lock_b("lock-B");
  std::atomic<bool> b_held{false};

  simple_lock(&lock_a);  // main: A then (synthetically) B
  auto villain = kthread::spawn("villain", [&] {
    simple_lock(&lock_b);
    b_held.store(true);
    simple_lock(&lock_a);  // blocks on main's hold — B then A
    simple_unlock(&lock_a);
    simple_unlock(&lock_b);
  });
  while (!b_held.load()) std::this_thread::yield();
  // Main would now block on B; register the wait and let the watchdog look
  // instead of actually spinning forever.
  wait_graph::instance().thread_waits(current_thread_token(), &lock_b, "lock-B");
  auto cycle = wait_graph::instance().wait_for_cycle(3000);
  if (cycle.has_value()) {
    std::printf("  deadlock detected: %s\n", cycle->description.c_str());
  } else {
    std::printf("  (no deadlock detected — unexpected)\n");
  }
  // Unwind: main backs off its intent to take B (the backout protocol of
  // section 5), releasing A so the villain can finish.
  wait_graph::instance().thread_wait_done(current_thread_token(), &lock_b);
  simple_unlock(&lock_a);
  villain->join();
  std::printf("  unwound via backout: released A instead of waiting for B.\n");

  // --- Phase 3: ktrace timeline of the E6 recursive-lock deadlock ---
  std::printf("\nphase 3: tracing the sec. 7.1 vm_map_pageable deadlock (E6)...\n");
  {
    ktrace::reset();
    ktrace::enable();
    // 6 physical pages, 4 already consumed: the legacy wiring path faults
    // under its recursive read lock and waits for memory that only a
    // write-locked reclaim can free.
    object_zone<vm_page> pages("doctor-pages", 6);
    auto map = make_object<vm_map>();
    auto cold = make_object<memory_object>(pages);
    auto hot = make_object<memory_object>(pages);
    std::uint64_t cold_addr = 0, hot_addr = 0;
    map->enter(cold, 0, 4 * vm_page_size, &cold_addr);
    map->enter(hot, 0, 4 * vm_page_size, &hot_addr);
    for (std::uint64_t i = 0; i < 4; ++i) {
      vm_fault(*map, cold_addr + i * vm_page_size, nullptr);
    }
    std::atomic<bool> wire_done{false};
    auto wirer = kthread::spawn("vm_map_pageable", [&] {
      wire_done.store(vm_map_pageable_legacy(*map, hot_addr, 4 * vm_page_size, true) ==
                      KERN_SUCCESS);
    });
    auto reclaimer = kthread::spawn("page-reclaimer",
                                    [&] { vm_map_reclaim(*map, pages.raw(), 4); });
    auto vm_cycle = wait_graph::instance().wait_for_cycle(3000);
    if (vm_cycle.has_value()) {
      std::printf("  deadlock detected: %s\n", vm_cycle->description.c_str());
      pages.raw().set_max(16);  // operator remedy: add memory so it unwinds
    }
    wirer->join();
    reclaimer->join();
    ktrace::disable();
    ktrace::trace_collection c = ktrace::collect();
    std::printf("  wiring %s; trace captured %zu events from %zu threads.\n",
                wire_done.load() ? "completed after the remedy" : "FAILED",
                c.events.size(), c.threads.size());
    std::printf("  timeline (last 25 events — read-wait/write-wait/blocked spans show the"
                " cycle forming):\n");
    export_text(c, std::cout, 25);
  }

  // --- Phase 4: ktrace timeline of an E10 TLB-shootdown round ---
  std::printf("\nphase 4: tracing a TLB-shootdown round (E10)...\n");
  {
    ktrace::reset();
    ktrace::enable();
    machine::instance().configure(3);
    {
      tlb_set tlbs(3);
      pmap_system pmaps;
      shootdown_engine engine(pmaps, tlbs);
      engine.attach(SPLHIGH);
      pmap target("doctor-pmap");
      std::atomic<bool> stop{false};
      std::vector<std::unique_ptr<kthread>> pollers;
      for (int i = 1; i < 3; ++i) {
        pollers.push_back(kthread::spawn("cpu" + std::to_string(i), [i, &stop] {
          cpu_binding bind(i);
          while (!stop.load()) {
            machine::interrupt_point();
            std::this_thread::yield();
          }
        }));
      }
      {
        cpu_binding bind(0);
        for (std::uint64_t r = 0; r < 2; ++r) {
          engine.update_mapping(target, 0x1000, 0xB000 + r, std::chrono::seconds(5));
        }
      }
      stop.store(true);
      for (auto& p : pollers) p->join();
    }
    machine::instance().configure(0);
    ktrace::disable();
    ktrace::trace_collection c = ktrace::collect();
    std::printf("  timeline (shootdown-post instants, each CPU's barrier-isr park, the\n"
                "  initiator's barrier-round and whole-protocol shootdown spans):\n");
    export_text(c, std::cout, 30);
  }

  // --- Phase 5: kmon — the kernel-wide counter view ---
  std::printf("\nphase 5: kmon metrics over a short mixed workload...\n");
  {
    kmon::enable();
    int ev = 0;
    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<kthread>> workers;
    simple_lock_data_t l;
    simple_lock_init(&l, "doctor-metrics-lock");
    for (int i = 0; i < 4; ++i) {
      workers.push_back(kthread::spawn(std::string("met") += std::to_string(i), [&] {
        while (!stop.load()) {
          simple_lock(&l);
          simple_unlock(&l);
          assert_wait(&ev);
          thread_block_timeout(std::chrono::milliseconds(1));
        }
      }));
    }
    for (int r = 0; r < 50; ++r) {
      thread_wakeup(&ev);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
    thread_wakeup(&ev);
    for (auto& w : workers) w->join();
    kmon::disable();
    std::printf("  top metrics (print_kmon_top — counters, gauges,\n"
                "  block-latency histogram; exportable via MACHLOCK_METRICS=out.prom):\n");
    print_kmon_top(kmon::registry::instance().snapshot(), 12);
  }

  std::printf("\ndone.\n");
  return 0;
}
