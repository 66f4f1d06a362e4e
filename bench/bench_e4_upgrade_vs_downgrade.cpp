// E4 — Upgrade vs write-then-downgrade (paper section 7.1).
//
// Claim: "The read to write upgrade feature of Mach's complex locks is
// rarely used because a failed upgrade attempt releases the read lock.
// Releasing the lock in this situation is required to avoid deadlocked
// upgrades, but also requires recovery logic in the caller to handle
// failed upgrades. A simpler alternative that avoids upgrades is to
// initially lock for writing, and downgrade to a read lock after
// operations that require the write lock are complete. This downgrade
// cannot fail and does not require any special logic."
//
// Both variants perform the same read-validate / maybe-mutate transaction.
// Expected shape: the upgrade variant pays failed upgrades (with full
// retries — the recovery logic) under contention; downgrade never fails.
#include <atomic>
#include <chrono>
#include <thread>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "sync/complex_lock.h"

namespace {

using namespace mach;

struct variant_result {
  double ops_per_sec;
  std::uint64_t upgrades_failed;
  std::uint64_t retries;
};

variant_result run_upgrade(int threads, int duration_ms) {
  lock_data_t lock;
  lock_init(&lock, true, "e4-upgrade");
  long value = 0;
  std::atomic<std::uint64_t> retries{0};

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    for (;;) {
      lock_read(&lock);
      long seen = value;  // validate phase under read lock (with dwell, so
                          // concurrent readers overlap and race to upgrade)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      if (lock_read_to_write(&lock)) {
        // TRUE = failed; our read hold is GONE — this retry loop is the
        // "recovery logic in the caller" the paper complains about.
        retries.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      value = seen + 1;  // mutate under the upgraded write lock
      lock_done(&lock);
      return;
    }
  };
  workload_result r = run_workload(spec);
  return {r.ops_per_second(), lock_stats(&lock).upgrades_failed, retries.load()};
}

variant_result run_downgrade(int threads, int duration_ms) {
  lock_data_t lock;
  lock_init(&lock, true, "e4-downgrade");
  long value = 0;

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    lock_write(&lock);
    ++value;  // mutate first, under the write lock
    lock_write_to_read(&lock);  // cannot fail
    long sink = value;          // the same validate-phase dwell, under read
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    (void)sink;
    lock_done(&lock);
  };
  workload_result r = run_workload(spec);
  return {r.ops_per_second(), lock_stats(&lock).upgrades_failed, 0};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(250);
  mach::table t("E4: read→write upgrade vs write-then-downgrade (sec. 7.1)");
  t.columns({"variant", "threads", "transactions/s", "failed upgrades", "retries"});
  t.dirs({dir::info, dir::info, dir::higher, dir::stat, dir::stat});
  for (int threads : {1, 2, 4}) {
    variant_result up = run_upgrade(threads, duration);
    variant_result down = run_downgrade(threads, duration);
    t.row({"upgrade", mach::table::num(static_cast<std::uint64_t>(threads)),
           mach::table::num(static_cast<std::uint64_t>(up.ops_per_sec)),
           mach::table::num(up.upgrades_failed), mach::table::num(up.retries)});
    t.row({"write+downgrade", mach::table::num(static_cast<std::uint64_t>(threads)),
           mach::table::num(static_cast<std::uint64_t>(down.ops_per_sec)),
           mach::table::num(down.upgrades_failed), mach::table::num(down.retries)});
  }
  t.print();
  return 0;
}
