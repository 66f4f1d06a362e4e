// E3 — Writers' priority (paper section 4).
//
// Claim: the Multiple protocol implements "a multiple readers/single
// writer lock, with writers priority to avoid starvation. This means that
// readers may not be added to a lock held for reading in the presence of
// an outstanding write request, thus ensuring that the lock will be
// released and made available to the writer."
//
// We flood a complex lock with readers and measure what a single writer
// experiences with writers' priority on (Mach) vs off (ablation).
// Expected shape: priority off → writer ops collapse and worst-case write
// latency explodes; priority on → bounded.
#include <chrono>
#include <thread>

#include "base/stats.h"
#include "harness/trace_session.h"

#include "harness/table.h"
#include "harness/workload.h"
#include "sync/complex_lock.h"

namespace {

using namespace mach;

struct run_result {
  double reader_ops_per_sec;
  double writer_ops_per_sec;
  std::uint64_t writer_p99_us;
  std::uint64_t writer_max_us;
};

run_result run_config(bool writer_priority, int readers, int duration_ms) {
  lock_data_t lock;
  lock_init(&lock, /*can_sleep=*/true, "e3");
  lock_set_writer_priority(&lock, writer_priority);
  long shared = 0;
  latency_histogram writer_wait;  // time from lock_write call to acquisition

  const int threads = readers + 1;  // thread 0 is the writer
  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t) {
    if (t == 0) {
      // A paced writer (e.g. periodic table update): what matters is how
      // long each write WAITS, not how many writes it can monopolize.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      std::uint64_t t0 = now_nanos();
      lock_write(&lock);
      writer_wait.record(now_nanos() - t0);
      ++shared;
      lock_done(&lock);
    } else {
      lock_read(&lock);
      // Readers dwell (a short blocking read, e.g. copying out data)
      // long enough that their holds overlap: without writers' priority,
      // read_count then rarely reaches zero and the writer starves.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      long sink = shared;
      (void)sink;
      lock_done(&lock);
    }
  };
  workload_result r = run_workload(spec);

  run_result out{};
  const worker_result& writer = r.per_thread[0];
  std::uint64_t reader_ops = r.total_ops() - writer.ops;
  out.reader_ops_per_sec =
      static_cast<double>(reader_ops) * 1e9 / static_cast<double>(r.wall_nanos);
  out.writer_ops_per_sec =
      static_cast<double>(writer.ops) * 1e9 / static_cast<double>(r.wall_nanos);
  out.writer_p99_us = writer_wait.quantile_nanos(0.99) / 1000;
  out.writer_max_us = writer_wait.max_nanos() / 1000;
  return out;
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(300);
  mach::table t("E3: writers' priority vs reader flood (sec. 4) — 1 writer");
  t.columns({"priority", "readers", "reader ops/s", "writer ops/s", "write wait p99 (us)",
             "write wait max (us)"});
  t.dirs({dir::info, dir::info, dir::higher, dir::higher, dir::lower, dir::stat});
  for (int readers : {2, 4, 6}) {
    for (bool prio : {true, false}) {
      run_result r = run_config(prio, readers, duration);
      t.row({prio ? "on (Mach)" : "off", mach::table::num(static_cast<std::uint64_t>(readers)),
             mach::table::num(static_cast<std::uint64_t>(r.reader_ops_per_sec)),
             mach::table::num(static_cast<std::uint64_t>(r.writer_ops_per_sec)),
             mach::table::num(r.writer_p99_us), mach::table::num(r.writer_max_us)});
    }
  }
  t.print();
  return 0;
}
