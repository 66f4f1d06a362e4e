// E15 — Non-locking coordination: the usage-timing subsystem (paper §2).
//
// Claim: "The Mach kernel's operation coordination techniques are based on
// multiprocessor locking, with the exception of access to timer data
// structures in its usage timing subsystem [5]" — justified because the
// single-writer restriction holds there, and techniques without locks
// "require an independently accessible memory cell per processor" while a
// locking solution uses a single cell.
//
// Workload: one writer ticking a timer continuously (the running
// processor) while N readers sample it (other processors computing usage
// statistics). Compared: the check-field lock-free timer vs the simple-
// lock baseline. Expected shape: the lock-free timer's writer is immune to
// readers (no shared lock to contend), and readers never block the writer;
// the locked version couples them.
#include <atomic>
#include <cstdio>
#include <thread>

#include "base/stats.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "sched/timer.h"

namespace {

using namespace mach;

template <typename Timer>
struct e15_result {
  double writer_ticks_per_sec;
  double reader_reads_per_sec;
  std::uint64_t retries;
};

template <typename Timer>
e15_result<Timer> run_config(int readers, int duration_ms) {
  Timer timer;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ticks{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      timer.tick(timer_low_limit / 5);  // constant rollover pressure
      ++local;
    }
    ticks.store(local);
  });
  std::vector<std::thread> rs;
  std::vector<std::uint64_t> local_reads(static_cast<std::size_t>(readers), 0);
  for (int r = 0; r < readers; ++r) {
    rs.emplace_back([&, r] {
      std::uint64_t sink = 0;
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        sink += timer.total_us();
        ++n;
      }
      local_reads[static_cast<std::size_t>(r)] = n;
      (void)sink;
    });
  }
  std::uint64_t t0 = now_nanos();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  writer.join();
  for (auto& t : rs) t.join();
  double secs = static_cast<double>(now_nanos() - t0) / 1e9;

  std::uint64_t total_reads = 0;
  for (std::uint64_t n : local_reads) total_reads += n;
  std::uint64_t retries = 0;
  if constexpr (std::is_same_v<Timer, usage_timer>) retries = timer.read_retries();
  return {static_cast<double>(ticks.load()) / secs, static_cast<double>(total_reads) / secs,
          retries};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(200);
  mach::table t("E15: usage timers — check-field (lock-free) vs simple-lock (sec. 2)");
  t.columns({"implementation", "readers", "writer ticks/s", "reader reads/s", "read retries"});
  t.dirs({dir::info, dir::info, dir::higher, dir::higher, dir::stat});
  for (int readers : {0, 1, 2, 4}) {
    auto lf = run_config<usage_timer>(readers, duration);
    auto lk = run_config<locked_usage_timer>(readers, duration);
    t.row({"check-field (Mach)", mach::table::num(static_cast<std::uint64_t>(readers)),
           mach::table::num(static_cast<std::uint64_t>(lf.writer_ticks_per_sec)),
           mach::table::num(static_cast<std::uint64_t>(lf.reader_reads_per_sec)),
           mach::table::num(lf.retries)});
    t.row({"simple lock", mach::table::num(static_cast<std::uint64_t>(readers)),
           mach::table::num(static_cast<std::uint64_t>(lk.writer_ticks_per_sec)),
           mach::table::num(static_cast<std::uint64_t>(lk.reader_reads_per_sec)),
           mach::table::num(lk.retries)});
  }
  t.print();
  std::printf("\n  expected shape: the check-field writer sustains its tick rate regardless\n"
              "  of reader count and readers pay only occasional retries; the locked\n"
              "  variant couples writer and readers through the shared lock.\n");
  return 0;
}
