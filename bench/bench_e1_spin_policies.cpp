// E1 — Spin policy comparison (paper section 2).
//
// Claim: while a lock is unavailable, raw test-and-set wastes bus /
// interconnect bandwidth (every attempt is an atomic RMW = a cache-line
// ownership transfer); test-and-test-and-set spins on plain loads in the
// local cache; Mach's refinement tries the RMW first because "most locks
// in a well designed system are acquired on the first attempt".
//
// Output: per policy × thread count — acquisition throughput, the fraction
// of contended acquisitions, and failed RMWs per acquisition (the bus
// traffic proxy); plus the uncontended first-attempt check.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/simple_lock.h"
#include "sync/ticket_lock.h"
#include "vm/shootdown.h"

namespace {

using namespace mach;

struct config_result {
  spin_policy policy;
  int threads;
  double ops_per_sec;
  spin_stats stats;
};

config_result run_config(spin_policy policy, int threads, int duration_ms) {
  const int threads_ = threads;
  simple_lock_data_t lock;
  simple_lock_init(&lock, "e1", true, policy);
  std::vector<spin_stats> per_thread(static_cast<std::size_t>(threads));
  long shared = 0;

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t iter) {
    simple_lock(&lock, &per_thread[static_cast<std::size_t>(t)]);
    ++shared;
    // Simulate occasional preemption of the lock holder (on a machine
    // with fewer cores than threads the OS does this at scheduler ticks;
    // we make it deterministic so contention is visible at any host core
    // count). This is what makes waiters actually spin.
    if (threads_ > 1 && iter % 16 == 0) std::this_thread::yield();
    simple_unlock(&lock);
  };
  workload_result r = run_workload(spec);

  spin_stats merged;
  for (const auto& s : per_thread) merged.merge(s);
  return {policy, threads, r.ops_per_second(), merged};
}

// Trace-only showcase: a spin-policy run alone traces nothing but lock
// events. When a trace session is active, briefly exercise the scheduler
// (assert_wait/thread_block/thread_wakeup) and the TLB-shootdown engine so
// one exported timeline demonstrates the sync + sched + vm categories.
void run_trace_showcase() {
  using namespace std::chrono_literals;

  // A blocked/wakeup handshake for the sched track.
  std::atomic<bool> waiting{false};
  int the_event = 0;
  auto sleeper = kthread::spawn("trace-sleeper", [&] {
    assert_wait(&the_event);
    waiting.store(true);
    thread_block();
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(1ms);
  thread_wakeup(&the_event);
  sleeper->join();

  // A few shootdown rounds with two participant CPUs for the vm/smp track.
  machine::instance().configure(3);
  {
    tlb_set tlbs(3);
    pmap_system pmaps;
    shootdown_engine engine(pmaps, tlbs);
    engine.attach(SPLHIGH);
    pmap target("e1-trace-pmap");
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
      for (std::uint64_t r = 0; r < 4; ++r) {
        engine.update_mapping(target, 0x1000, 0xA000 + r, 5s);
      }
    }
    stop.store(true);
    for (auto& p : pollers) p->join();
  }
  machine::instance().configure(0);
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(200);
  const spin_policy policies[] = {spin_policy::tas, spin_policy::ttas,
                                  spin_policy::tas_then_ttas, spin_policy::ttas_backoff};

  mach::table t(
      "E1: spin policies under contention (sec. 2) — failed RMW/acq is the bus-traffic proxy");
  t.columns({"policy", "threads", "acq/s", "contended%", "failedRMW/acq", "loads/acq", "yields/acq"});
  // benchguard: gate throughput and the bus-traffic proxy; the raw spin
  // diagnostics are too host-dependent to gate.
  t.dirs({dir::info, dir::info, dir::higher, dir::stat, dir::lower, dir::stat, dir::stat});
  for (spin_policy p : policies) {
    for (int threads : {1, 2, 4, 8}) {
      config_result r = run_config(p, threads, duration);
      double acq = static_cast<double>(r.stats.acquisitions);
      if (acq == 0) acq = 1;
      t.row({to_string(p), mach::table::num(static_cast<std::uint64_t>(threads)),
             mach::table::num(static_cast<std::uint64_t>(r.ops_per_sec)),
             mach::table::num(100.0 * static_cast<double>(r.stats.contended) / acq, 1),
             mach::table::num(static_cast<double>(r.stats.failed_rmw) / acq, 3),
             mach::table::num(static_cast<double>(r.stats.spin_loads) / acq, 1),
             mach::table::num(static_cast<double>(r.stats.yields) / acq, 3)});
    }
  }
  t.print();

  // The refinement's premise: uncontended locks are acquired first try.
  mach::table t2("E1b: uncontended acquisition — first attempt succeeds (sec. 2 premise)");
  t2.columns({"policy", "acquisitions", "contended", "failedRMW"});
  t2.dirs({dir::info, dir::stat, dir::stat, dir::stat});
  for (spin_policy p : policies) {
    config_result r = run_config(p, 1, duration / 2);
    t2.row({to_string(p), mach::table::num(r.stats.acquisitions),
            mach::table::num(r.stats.contended), mach::table::num(r.stats.failed_rmw)});
  }
  t2.print();

  // E1c: fairness. Test-and-set grants the lock to whichever RMW lands
  // first; a waiter can starve behind luckier ones. The ticket lock is the
  // FIFO contrast. Fairness = min/max per-thread completed ops.
  mach::table t3("E1c: acquisition fairness at 8 threads — TAS family vs FIFO ticket lock");
  t3.columns({"lock", "ops/s", "fairness (min/max)"});
  t3.dirs({dir::info, dir::higher, dir::higher});
  auto fairness_run = [&](const char* name, auto lock_fn, auto unlock_fn) {
    workload_spec spec;
    spec.threads = 8;
    spec.duration_ms = duration;
    long shared = 0;
    spec.body = [&](int, std::uint64_t iter) {
      lock_fn();
      ++shared;
      if (iter % 16 == 0) std::this_thread::yield();  // holder preemption, as E1a
      unlock_fn();
    };
    workload_result r = run_workload(spec);
    t3.row({name, mach::table::num(static_cast<std::uint64_t>(r.ops_per_second())),
            mach::table::num(r.fairness(), 3)});
  };
  {
    simple_lock_data_t l("e1c-tas", true, spin_policy::tas);
    fairness_run("tas", [&] { simple_lock(&l); }, [&] { simple_unlock(&l); });
  }
  {
    simple_lock_data_t l("e1c-ttas", true, spin_policy::tas_then_ttas);
    fairness_run("tas+ttas", [&] { simple_lock(&l); }, [&] { simple_unlock(&l); });
  }
  {
    ticket_lock l;
    fairness_run("ticket (FIFO)", [&] { l.lock(); }, [&] { l.unlock(); });
  }
  t3.print();
  std::printf(
      "\n  expected shape: the ticket lock's fairness approaches 1.0; the TAS family\n"
      "  is measurably less fair under contention (the price of its simplicity).\n");

  if (trace.active()) {
    std::printf("\n  trace session active: adding a sched + shootdown showcase to %s\n",
                trace.path().c_str());
    run_trace_showcase();
  }
  return 0;
}
