// E8 — The event-wait race (paper section 6).
//
// Claim: releasing locks to wait for an event "must be atomic with respect
// to the operation that declares event occurrence; this avoids races in
// which the event occurs while the locks are being released, leaving the
// waiter blocked indefinitely. Mach implements this functionality by
// splitting the wait functionality into declaration and conditional wait
// components" (assert_wait / thread_block).
//
// We run a producer/consumer handshake two ways:
//   mach:  lock → check → assert_wait → unlock → thread_block
//   naive: lock → check → unlock → (window!) → assert_wait → thread_block
// The naive variant loses wakeups that land in the window; a rescue
// timeout converts each loss into a visible, slow recovery.
#include <atomic>
#include <cstdio>
#include <thread>

#include "base/stats.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/simple_lock.h"

namespace {

using namespace mach;
using namespace std::chrono_literals;

struct race_result {
  std::uint64_t rounds;
  std::uint64_t lost_wakeups;
  double mean_wait_us;
};

race_result run_variant(bool mach_protocol, int rounds) {
  simple_lock_data_t lock;
  simple_lock_init(&lock, "e8");
  int flag = 0;  // guarded by lock
  int consumed = 0;
  std::uint64_t lost = 0;
  std::uint64_t total_wait_ns = 0;

  auto producer = kthread::spawn("producer", [&] {
    for (int r = 0; r < rounds; ++r) {
      simple_lock(&lock);
      ++flag;
      simple_unlock(&lock);
      thread_wakeup(&flag);
      // Wait until the consumer caught up before producing again, so each
      // round is an independent race instance.
      while (true) {
        simple_lock(&lock);
        bool done = consumed > r;
        simple_unlock(&lock);
        if (done) break;
        std::this_thread::yield();
      }
    }
  });

  auto consumer = kthread::spawn("consumer", [&] {
    for (int r = 0; r < rounds; ++r) {
      std::uint64_t t0 = now_nanos();
      for (;;) {
        simple_lock(&lock);
        if (flag > r) {
          ++consumed;
          simple_unlock(&lock);
          break;
        }
        if (mach_protocol) {
          // Declaration BEFORE the unlock: a wakeup between unlock and
          // block converts the block into a no-op.
          assert_wait(&flag);
          simple_unlock(&lock);
          thread_block();
        } else {
          // The racy ordering: unlock first, then declare. A wakeup in
          // the window is lost; the rescue timeout makes that visible.
          simple_unlock(&lock);
          std::this_thread::yield();  // the window: producer may run here
          assert_wait(&flag);
          if (thread_block_timeout(2ms) == wait_result::timed_out) ++lost;
        }
      }
      total_wait_ns += now_nanos() - t0;
    }
  });

  producer->join();
  consumer->join();
  return {static_cast<std::uint64_t>(rounds), lost,
          static_cast<double>(total_wait_ns) / static_cast<double>(rounds) / 1000.0};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int rounds = mach::bench_duration_ms(300) * 10;  // ~3000 rounds by default
  mach::table t("E8: assert_wait/thread_block vs unlock-then-wait (sec. 6)");
  t.columns({"protocol", "rounds", "lost wakeups", "mean wait (us)"});
  // lost wakeups is the demonstration (the broken protocol is SUPPOSED to
  // lose some), so it stays descriptive; the wait time gates.
  t.dirs({dir::info, dir::info, dir::stat, dir::lower});
  race_result naive = run_variant(false, rounds);
  race_result machp = run_variant(true, rounds);
  t.row({"mach (declare-then-release)", mach::table::num(machp.rounds),
         mach::table::num(machp.lost_wakeups), mach::table::num(machp.mean_wait_us, 1)});
  t.row({"naive (release-then-declare)", mach::table::num(naive.rounds),
         mach::table::num(naive.lost_wakeups), mach::table::num(naive.mean_wait_us, 1)});
  t.print();
  std::printf("\n  expected shape: the Mach split protocol loses zero wakeups; the naive\n"
              "  ordering loses some fraction, each costing a full rescue timeout.\n");
  return 0;
}
