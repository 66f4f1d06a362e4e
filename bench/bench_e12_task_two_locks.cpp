// E12 — The task's two locks (paper section 5).
//
// Claim: "Some classes of objects have more than one lock in order to
// allow concurrent operations on different parts of the object (e.g., a
// task has two locks to allow task operations and ipc translations to
// occur in parallel)."
//
// Scenario: one "hog" thread performs long task operations (think
// task-statistics snapshots) holding the task lock ~50% of the time, while
// translator threads perform IPC name lookups in the same task. With a
// single shared lock every lookup can stall behind the task operation;
// with Mach's split locks the translators never touch the task lock.
//
// Metrics: translation throughput and tail latency. Expected shape: split
// locks keep translation p99 flat; the shared lock inflates it to the
// task-operation hold time (and worse, scheduling delays), and burns
// translator CPU in spinning.
#include <chrono>
#include <cstdio>
#include <thread>

#include "base/stats.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "kern/task.h"

namespace {

using namespace mach;

struct e12_result {
  double translations_per_sec;
  double task_ops_per_sec;
  std::uint64_t translate_p99_us;
  std::uint64_t translate_max_us;
};

e12_result run_config(bool split, int translators, int duration_ms) {
  auto tk = make_object<task>("e12-task", split);
  std::vector<port_name_t> names;
  for (int i = 0; i < 16; ++i) names.push_back(tk->space().insert(make_object<port>()));

  const int threads = translators + 1;  // thread 0 is the hog
  std::vector<latency_histogram> lat(static_cast<std::size_t>(threads));
  std::atomic<std::uint64_t> task_ops{0};
  std::atomic<std::uint64_t> translations{0};

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t iter) {
    if (t == 0) {
      // A long task operation holding the task lock. The sleep models the
      // holder being delayed mid-operation (interrupt service, preemption
      // — the delays sec. 7 worries about), which is when the lock layout
      // matters most: with a shared lock every translation stalls behind
      // it; with split locks none do.
      (void)iter;
      tk->lock();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      tk->unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      task_ops.fetch_add(1, std::memory_order_relaxed);
    } else {
      std::uint64_t t0 = now_nanos();
      auto p = tk->space().lookup(names[iter % names.size()]);
      lat[static_cast<std::size_t>(t)].record(now_nanos() - t0);
      translations.fetch_add(1, std::memory_order_relaxed);
    }
  };
  workload_result r = run_workload(spec);

  latency_histogram all;
  for (const auto& h : lat) all.merge(h);
  double secs = static_cast<double>(r.wall_nanos) / 1e9;
  return {static_cast<double>(translations.load()) / secs,
          static_cast<double>(task_ops.load()) / secs, all.quantile_nanos(0.99) / 1000,
          all.max_nanos() / 1000};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(250);
  mach::table t("E12: IPC translation vs long task operations — two locks vs one (sec. 5)");
  t.columns({"locking", "translators", "translations/s", "task ops/s", "xlate p99 (us)",
             "xlate max (us)"});
  t.dirs({dir::info, dir::info, dir::higher, dir::higher, dir::lower, dir::stat});
  for (int translators : {1, 2, 4}) {
    for (bool split : {true, false}) {
      e12_result r = run_config(split, translators, duration);
      t.row({split ? "split (Mach)" : "single lock",
             mach::table::num(static_cast<std::uint64_t>(translators)),
             mach::table::num(static_cast<std::uint64_t>(r.translations_per_sec)),
             mach::table::num(static_cast<std::uint64_t>(r.task_ops_per_sec)),
             mach::table::num(r.translate_p99_us), mach::table::num(r.translate_max_us)});
    }
  }
  t.print();
  std::printf("\n  expected shape: with the shared lock, translation tail latency inflates to\n"
              "  the task operation's hold time; split locks keep translations unaffected.\n");
  return 0;
}
