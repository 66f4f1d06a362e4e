// E5 — The Sleep option (paper section 4).
//
// Claim: "The Sleep option supports situations in which blocking
// operations will be executed while a lock is held. Examples of these
// operations include memory allocation (blocks if memory is not
// available) [and] accessing pageable memory." Waiters on a Sleep lock
// block through the event system and consume no CPU; waiters on a spin
// lock burn CPU for the whole time the holder is blocked.
//
// Workload: each op takes the lock and performs a simulated page-in
// (hundreds of microseconds of blocking) inside the critical section.
// Metric: process CPU time per completed operation, alongside the waiter
// sleep/spin counters. Expected shape: sleep mode's CPU/op stays near the
// critical-section cost; spin mode's CPU/op grows with thread count as
// waiters burn the holder's entire blocking time.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <thread>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "sync/complex_lock.h"

namespace {

using namespace mach;

std::uint64_t process_cpu_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct sleep_result {
  double ops_per_sec;
  double cpu_us_per_op;
  double cpu_utilization_pct;  // CPU time / wall time
  std::uint64_t sleeps;
  std::uint64_t spins;
};

sleep_result run_config(bool can_sleep, int threads, int block_us, int duration_ms) {
  lock_data_t lock;
  lock_init(&lock, can_sleep, "e5");

  std::uint64_t cpu0 = process_cpu_nanos();
  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    lock_write(&lock);
    // The blocking operation inside the critical section (a page-in /
    // allocation stand-in).
    std::this_thread::sleep_for(std::chrono::microseconds(block_us));
    lock_done(&lock);
  };
  workload_result r = run_workload(spec);
  std::uint64_t cpu = process_cpu_nanos() - cpu0;

  complex_lock_stats s = lock_stats(&lock);
  double ops = static_cast<double>(r.total_ops());
  if (ops == 0) ops = 1;
  return {r.ops_per_second(), static_cast<double>(cpu) / ops / 1000.0,
          100.0 * static_cast<double>(cpu) / static_cast<double>(r.wall_nanos), s.sleeps,
          s.spins};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(300);
  mach::table t("E5: Sleep option vs spinning through a blocking hold (sec. 4)");
  t.columns({"mode", "threads", "block", "ops/s", "CPU us/op", "CPU util%", "sleeps", "spin iters"});
  t.dirs({dir::info, dir::info, dir::info, dir::higher, dir::lower, dir::stat, dir::stat,
          dir::stat});
  for (int block_us : {200, 1000}) {
    for (int threads : {2, 4, 8}) {
      for (bool can_sleep : {true, false}) {
        sleep_result r = run_config(can_sleep, threads, block_us, duration);
        t.row({can_sleep ? "sleep" : "spin",
               mach::table::num(static_cast<std::uint64_t>(threads)),
               mach::table::num(static_cast<std::uint64_t>(block_us)) + "us",
               mach::table::num(static_cast<std::uint64_t>(r.ops_per_sec)),
               mach::table::num(r.cpu_us_per_op, 1), mach::table::num(r.cpu_utilization_pct, 1),
               mach::table::num(r.sleeps), mach::table::num(r.spins)});
      }
    }
  }
  t.print();
  std::printf("\n  expected shape: sleep-mode waiters consume no CPU while the holder blocks\n"
              "  (CPU util stays near 0%%); spin-mode waiters burn CPU for the entire hold,\n"
              "  driving CPU/op up with thread count for no throughput gain.\n");
  return 0;
}
