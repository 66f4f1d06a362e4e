// E16 — Ablation: the wake-all policy of complex-lock releases.
//
// lock_done/lock_write_to_read wake EVERY thread blocked on the lock and
// let the waiters re-check their predicates ("Wake-all: waiters re-check
// their predicate and re-wait, which keeps the state machine simple at the
// price of a small thundering herd — Mach makes the same trade",
// sync/complex_lock.cpp). This bench quantifies that price: as the number
// of blocked writers grows, each successful acquisition costs more sleep
// episodes (each wake-all puts all-but-one waiter back to sleep).
//
// Expected shape: sleeps per acquisition grows roughly linearly with the
// number of waiters; throughput stays roughly flat (the herd re-blocks
// quickly) — evidence the simplicity trade is affordable, which is why
// both Mach and this reproduction keep it.
#include <cstdio>
#include <thread>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "sched/event.h"
#include "sync/complex_lock.h"

namespace {

using namespace mach;

struct e16_result {
  double ops_per_sec;
  double sleeps_per_acq;
  double wakeups_delivered_per_acq;
};

e16_result run_config(int threads, int duration_ms) {
  lock_data_t lock;
  lock_init(&lock, /*can_sleep=*/true, "e16");
  reset_event_counters();

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    lock_write(&lock);
    // Enough hold time that the other threads pile up asleep.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    lock_done(&lock);
  };
  workload_result r = run_workload(spec);
  complex_lock_stats s = lock_stats(&lock);
  double acq = s.write_acquisitions != 0 ? static_cast<double>(s.write_acquisitions) : 1.0;
  return {r.ops_per_second(), static_cast<double>(s.sleeps) / acq,
          static_cast<double>(event_counters().wakeups_delivered) / acq};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(250);
  mach::table t("E16 (ablation): wake-all release policy — the thundering-herd price");
  t.columns({"threads", "acq/s", "sleeps/acq", "wakeups delivered/acq"});
  t.dirs({dir::info, dir::higher, dir::stat, dir::stat});
  for (int threads : {1, 2, 4, 8, 16}) {
    e16_result r = run_config(threads, duration);
    t.row({mach::table::num(static_cast<std::uint64_t>(threads)),
           mach::table::num(static_cast<std::uint64_t>(r.ops_per_sec)),
           mach::table::num(r.sleeps_per_acq, 2), mach::table::num(r.wakeups_delivered_per_acq, 2)});
  }
  t.print();
  std::printf("\n  expected shape: sleeps/acq and wakeups/acq grow ~linearly with waiters\n"
              "  while throughput stays flat — the cost of wake-all simplicity, accepted\n"
              "  by Mach and by this reproduction.\n");
  return 0;
}
