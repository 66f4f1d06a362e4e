// Second-wave tests: historical-fidelity knobs, cross-layer interactions,
// and detector corner cases.
#include <gtest/gtest.h>

#include <atomic>

#include "ipc/space.h"
#include "kern/zalloc.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Appendix B.3's documented Mach 2.5 bug, reproduced on demand: the
// try-upgrade blocks through the event system even though Sleep is off.
TEST(Mach25Compat, TryUpgradeSleepsDespiteSpinMode) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/false, "mach25");
  lock_set_mach25_try_upgrade_bug(&l, true);
  lock_read(&l);
  std::atomic<bool> done{false};
  auto upgrader = kthread::spawn("upgrader", [&] {
    lock_read(&l);
    EXPECT_TRUE(lock_try_read_to_write(&l));  // drains us... by SLEEPING
    done.store(true);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(done.load());
  // The waiter must be blocked through the event system, not spinning:
  EXPECT_GT(lock_stats(&l).sleeps, 0u) << "2.5 bug compat did not sleep";
  EXPECT_EQ(lock_stats(&l).polls, 0u) << "2.5 bug compat polled before sleeping";
  lock_done(&l);
  upgrader->join();
}

TEST(Mach25Compat, CorrectBehaviourSpinsInSpinMode) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/false, "correct");
  lock_read(&l);
  std::atomic<bool> done{false};
  auto upgrader = kthread::spawn("upgrader", [&] {
    lock_read(&l);
    EXPECT_TRUE(lock_try_read_to_write(&l));
    done.store(true);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(done.load());
  EXPECT_EQ(lock_stats(&l).sleeps, 0u);
  EXPECT_GT(lock_stats(&l).spins, 0u);
  lock_done(&l);
  upgrader->join();
}

// clear_wait aimed at a thread sleeping on a complex lock must not corrupt
// the lock: the waiter re-checks its predicate and re-waits.
TEST(CrossLayer, ClearWaitOnComplexLockSleeperIsHarmless) {
  lock_data_t l;
  lock_init(&l, true, "cleared-sleeper");
  lock_write(&l);
  std::atomic<bool> got{false};
  auto waiter = kthread::spawn("waiter", [&] {
    lock_read(&l);
    got.store(true);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);
  clear_wait(*waiter);  // spurious wake: waiter must re-check and re-block
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(got.load()) << "waiter acquired a write-held lock";
  lock_done(&l);
  waiter->join();
  EXPECT_TRUE(got.load());
}

// A recursive write holder may also take recursive READ holds and unwind
// everything in LIFO order.
TEST(CrossLayer, RecursiveMixedHoldsUnwind) {
  lock_data_t l;
  lock_init(&l, true, "rec-mixed");
  lock_write(&l);
  lock_set_recursive(&l);
  lock_write(&l);  // depth 1
  lock_read(&l);   // recursive read (read_count 1)
  lock_read(&l);   // read_count 2
  lock_done(&l);   // read
  lock_done(&l);   // read
  lock_done(&l);   // depth
  lock_clear_recursive(&l);
  lock_done(&l);   // base write
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

// A thread waiting on multiple resources at once (barrier-initiator
// style) participates correctly in cycle detection.
TEST(Detector, MultiWaitThreadCycles) {
  deadlock_tracing_scope tracing;
  wait_graph& g = wait_graph::instance();
  int r1 = 0, r2 = 0, r3 = 0;
  char t1 = 0, t2 = 0, t3 = 0;
  g.resource_held(&r3, &t1, "r3");
  g.thread_waits(&t1, &r1, "r1");  // t1 waits on two resources
  g.thread_waits(&t1, &r2, "r2");
  g.resource_held(&r1, &t2, "r1");  // r1's holder is not in a cycle
  g.resource_held(&r2, &t3, "r2");  // r2's holder waits back on t1
  g.thread_waits(&t3, &r3, "r3");
  auto c = g.find_cycle();
  ASSERT_TRUE(c.has_value());
  // The cycle is t1 → r2 → t3 → r3 → t1 (not through r1/t2).
  EXPECT_EQ(c->threads.size(), 2u);
}

// Zone shrink racing blocked allocators: raising the cap again releases
// exactly the waiters that fit.
TEST(CrossLayer, ZoneShrinkGrowCycleReleasesWaiters) {
  zone z("cycle", 32, 2);
  void* a = z.alloc();
  void* b = z.alloc();
  std::atomic<int> got{0};
  std::vector<std::unique_ptr<kthread>> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.push_back(kthread::spawn(std::string("w") += std::to_string(i), [&] {
      void* p = z.alloc();
      got.fetch_add(1);
      z.free(p);
    }));
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(got.load(), 0);
  z.set_max(8);  // room for everyone
  for (auto& w : waiters) w->join();
  EXPECT_EQ(got.load(), 3);
  z.free(a);
  z.free(b);
  EXPECT_EQ(z.in_use(), 0u);
}

// IPC space under concurrent churn: names stay unique and lookups never
// return a foreign port.
TEST(CrossLayer, IpcSpaceChurn) {
  ipc_space space;
  std::atomic<bool> bad{false};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int t = 0; t < 4; ++t) {
    threads.push_back(kthread::spawn("churn" + std::to_string(t), [&] {
      for (int i = 0; i < 1000; ++i) {
        auto p = make_object<port>();
        port* raw = p.get();
        port_name_t name = space.insert(std::move(p));
        auto found = space.lookup(name);
        if (!found || found.get() != raw) bad.store(true);
        if (!space.remove(name)) bad.store(true);
      }
    }));
  }
  for (auto& t : threads) t->join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(space.size(), 0u);
}

// Writers' priority applies to try-variants too: lock_try_read must be
// refused while a writer drains, even in the no-priority case once the
// lock is empty.
TEST(CrossLayer, TryReadRespectsPriorityConfiguration) {
  for (bool prio : {true, false}) {
    lock_data_t l;
    lock_init(&l, true, "try-prio");
    lock_set_writer_priority(&l, prio);
    lock_read(&l);
    auto writer = kthread::spawn("writer", [&] {
      lock_write(&l);
      lock_done(&l);
    });
    std::this_thread::sleep_for(10ms);  // writer committed, draining
    EXPECT_EQ(lock_try_read(&l), !prio)
        << "priority=" << prio << ": try_read admission mismatch";
    if (!prio) lock_done(&l);
    lock_done(&l);
    writer->join();
  }
}

}  // namespace
}  // namespace mach
