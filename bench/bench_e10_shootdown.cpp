// E10 — TLB shootdown: barrier cost, the pmap special logic, and the
// section 7 three-processor deadlock.
//
// Claims reproduced:
//   (a) "Barrier synchronization at interrupt level is actively
//       discouraged because it is a costly operation" — we measure
//       shootdown round latency as participants grow;
//   (b) inconsistent interrupt protection deadlocks three processors
//       (P1 holds the lock with interrupts enabled, P2 spins with them
//       disabled, P3 initiates the barrier) — we build the exact
//       interleaving, let the wait-for-graph detector name the cycle, and
//       unwind;
//   (c) the special pmap logic removes a CPU at a pmap lock from the
//       participant set so the round completes, posting its TLB update
//       for later.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "base/stats.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "sched/kthread.h"
#include "sync/deadlock.h"
#include "vm/shootdown.h"

namespace {

using namespace mach;
using dir = mach::metric_dir;
using namespace std::chrono_literals;

// (a) round latency vs participant count.
void bench_latency() {
  mach::table t("E10a: shootdown round latency vs participants (sec. 7 'costly operation')");
  t.columns({"participants", "rounds", "mean (us)", "p99 (us)"});
  t.dirs({dir::info, dir::info, dir::lower, dir::lower});
  for (int participants : {1, 2, 3, 5, 7}) {
    const int ncpus = participants + 1;
    machine::instance().configure(ncpus);
    tlb_set tlbs(ncpus);
    pmap_system pmaps;
    shootdown_engine engine(pmaps, tlbs);
    engine.attach(SPLHIGH);
    pmap target("e10-pmap");

    std::atomic<bool> stop{false};
    std::vector<std::unique_ptr<kthread>> pollers;
    for (int i = 1; i < ncpus; ++i) {
      pollers.push_back(kthread::spawn("cpu" + std::to_string(i), [i, &stop] {
        cpu_binding bind(i);
        while (!stop.load()) {
          machine::interrupt_point();
          std::this_thread::yield();
        }
      }));
    }
    latency_histogram lat;
    const int rounds = mach::bench_duration_ms(300) / 3;
    {
      cpu_binding bind(0);
      for (int r = 0; r < rounds; ++r) {
        std::uint64_t t0 = now_nanos();
        engine.update_mapping(target, 0x1000, 0xA000 + static_cast<std::uint64_t>(r), 5s);
        lat.record(now_nanos() - t0);
      }
    }
    stop.store(true);
    for (auto& p : pollers) p->join();
    machine::instance().configure(0);
    t.row({mach::table::num(static_cast<std::uint64_t>(participants)),
           mach::table::num(static_cast<std::uint64_t>(rounds)),
           mach::table::num(lat.mean_nanos() / 1000.0, 1),
           mach::table::num(lat.quantile_nanos(0.99) / 1000)});
  }
  t.print();
}

// (b) the three-processor deadlock, detected and unwound.
void bench_deadlock() {
  deadlock_tracing_scope tracing;
  machine::instance().configure(3);
  tlb_set tlbs(3);
  pmap_system pmaps;
  shootdown_engine engine(pmaps, tlbs);
  engine.attach(SPLHIGH);

  simple_lock_data_t device_lock;
  simple_lock_init(&device_lock, "device-lock");
  std::atomic<bool> p1_in{false}, p2_spinning{false}, unwound{false};

  auto p1 = kthread::spawn("P1(lock@spl0)", [&] {
    cpu_binding bind(1);
    simple_lock(&device_lock);  // inconsistently at spl0: interrupts enabled
    p1_in.store(true);
    while (!unwound.load()) machine::interrupt_point();
    simple_unlock(&device_lock);
  });
  while (!p1_in.load()) std::this_thread::yield();
  auto p2 = kthread::spawn("P2(spin@splhigh)", [&] {
    cpu_binding bind(2);
    spl_t s = splraise(SPLHIGH);  // interrupts disabled
    p2_spinning.store(true);
    simple_lock(&device_lock);
    simple_unlock(&device_lock);
    splx(s);
  });
  while (!p2_spinning.load()) std::this_thread::yield();

  std::atomic<int> status{-1};
  std::uint64_t t0 = now_nanos();
  auto p3 = kthread::spawn("P3(initiator)", [&] {
    cpu_binding bind(0);
    status.store(static_cast<int>(engine.barrier().run(0b110, [] {}, 30s)));
  });
  auto cycle = wait_graph::instance().wait_for_cycle(10000);
  double detect_ms = static_cast<double>(now_nanos() - t0) / 1e6;

  mach::table t("E10b: sec. 7 three-processor barrier deadlock (inconsistent spl)");
  t.columns({"observation", "value"});
  t.dirs({dir::info, dir::stat});
  t.row({"deadlock cycle detected", cycle.has_value() ? "YES" : "no"});
  t.row({"detection time (ms)", mach::table::num(detect_ms, 1)});
  if (cycle.has_value()) {
    t.row({"threads in cycle", mach::table::num(static_cast<std::uint64_t>(cycle->threads.size()))});
  }
  engine.barrier().abort_current();
  unwound.store(true);
  p1->join();
  p2->join();
  p3->join();
  t.row({"round outcome after watchdog abort",
         status.load() == static_cast<int>(interrupt_barrier::status::aborted) ? "aborted (unwound)"
                                                                               : "unexpected"});
  t.print();
  if (cycle.has_value()) std::printf("\n  cycle: %s\n", cycle->description.c_str());
  machine::instance().configure(0);
}

// (c) the pmap special logic keeps shootdown alive when a CPU holds a
// pmap lock.
void bench_special_logic() {
  mach::table t("E10c: pmap special logic — CPU at a pmap lock (sec. 7 last para.)");
  t.columns({"special logic", "round outcome", "stale TLB until lock drop", "flushed after"});
  t.dirs({dir::info, dir::info, dir::info, dir::info});
  for (bool logic : {true, false}) {
    machine::instance().configure(3);
    tlb_set tlbs(3);
    pmap_system pmaps;
    shootdown_engine engine(pmaps, tlbs);
    engine.attach(SPLHIGH);
    engine.set_pmap_special_logic(logic);
    pmap target("t"), held("h");
    tlbs.insert(2, 0x1000, 0xAAAA);

    std::atomic<bool> locked{false}, release{false}, stop{false};
    auto cpu2 = kthread::spawn("cpu2", [&] {
      cpu_binding bind(2);
      spl_t s = held.lock_acquire();
      locked.store(true);
      while (!release.load()) std::this_thread::yield();
      held.lock_release(s);
      while (!stop.load()) machine::interrupt_point();
    });
    auto cpu1 = kthread::spawn("cpu1", [&] {
      cpu_binding bind(1);
      while (!stop.load()) machine::interrupt_point();
    });
    while (!locked.load()) std::this_thread::yield();
    interrupt_barrier::status st;
    {
      cpu_binding bind(0);
      st = engine.update_mapping(target, 0x1000, 0xBBBB, 300ms);
    }
    bool stale = tlbs.lookup(2, 0x1000).has_value();
    release.store(true);
    bool flushed = false;
    for (int i = 0; i < 2000 && !flushed; ++i) {
      flushed = !tlbs.lookup(2, 0x1000).has_value();
      std::this_thread::sleep_for(1ms);
    }
    stop.store(true);
    cpu2->join();
    cpu1->join();
    machine::instance().configure(0);
    t.row({logic ? "on (Mach)" : "off",
           st == interrupt_barrier::status::ok ? "completed" : "TIMED OUT",
           stale ? "yes (posted, deferred)" : "no", flushed ? "yes" : "NO"});
  }
  t.print();
}

}  // namespace

int main() {
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  bench_latency();
  bench_deadlock();
  bench_special_logic();
  std::printf("\n  expected shape: latency grows with participants (the 'costly operation');\n"
              "  the inconsistent-spl interleaving produces the named 3-thread cycle; with\n"
              "  the special logic the round completes and the deferred flush lands later.\n");
  return 0;
}
