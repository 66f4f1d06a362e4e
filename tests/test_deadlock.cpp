// Tests for the wait-for-graph deadlock detector and the lock-order
// validator (sections 5 and 7 tooling).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "sync/lock_order.h"
#include "sync/simple_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

TEST(WaitGraph, DisabledRecordsNothing) {
  wait_graph& g = wait_graph::instance();
  g.set_enabled(false);
  int r1 = 0;
  g.thread_waits(current_thread_token(), &r1, "r1");
  g.resource_held(&r1, current_thread_token(), "r1");
  EXPECT_FALSE(g.find_cycle().has_value());
  g.clear();
}

TEST(WaitGraph, NoCycleInAcyclicGraph) {
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  int ra = 0, rb = 0;
  char t1 = 0, t2 = 0;
  g.resource_held(&ra, &t1, "A");
  g.thread_waits(&t2, &ra, "A");
  g.resource_held(&rb, &t2, "B");
  EXPECT_FALSE(g.find_cycle().has_value());
}

TEST(WaitGraph, TwoPartyCycleDetected) {
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  int ra = 0, rb = 0;
  char t1 = 0, t2 = 0;
  g.name_thread(&t1, "alpha");
  g.name_thread(&t2, "beta");
  g.resource_held(&ra, &t1, "lockA");
  g.resource_held(&rb, &t2, "lockB");
  g.thread_waits(&t1, &rb, "lockB");
  g.thread_waits(&t2, &ra, "lockA");
  auto c = g.find_cycle();
  ASSERT_TRUE(c.has_value());
  EXPECT_NE(c->description.find("alpha"), std::string::npos);
  EXPECT_NE(c->description.find("beta"), std::string::npos);
  EXPECT_NE(c->description.find("lock"), std::string::npos);
}

TEST(WaitGraph, ThreePartyCycleDetected) {
  // The shape of the section 7 interrupt-barrier deadlock.
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  int lock = 0, entry2 = 0, release = 0;
  char p1 = 0, p2 = 0, p3 = 0;
  g.resource_held(&lock, &p1, "the-lock");
  g.resource_held(&entry2, &p2, "barrier-entry(cpu2)");
  g.resource_held(&release, &p3, "barrier-release");
  g.thread_waits(&p3, &entry2, "barrier-entry(cpu2)");  // initiator waits for P2
  g.thread_waits(&p2, &lock, "the-lock");               // P2 spins on the lock
  g.thread_waits(&p1, &release, "barrier-release");     // P1 parked in the ISR
  auto c = g.find_cycle();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->threads.size(), 3u);
}

TEST(WaitGraph, EdgeRemovalBreaksCycle) {
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  int ra = 0, rb = 0;
  char t1 = 0, t2 = 0;
  g.resource_held(&ra, &t1, "A");
  g.resource_held(&rb, &t2, "B");
  g.thread_waits(&t1, &rb, "B");
  g.thread_waits(&t2, &ra, "A");
  ASSERT_TRUE(g.find_cycle().has_value());
  g.thread_wait_done(&t2, &ra);
  EXPECT_FALSE(g.find_cycle().has_value());
}

TEST(WaitGraph, SimpleLocksFeedTheGraph) {
  deadlock_tracing_scope scope;
  simple_lock_data_t a, b;
  simple_lock_init(&a, "graph-a");
  simple_lock_init(&b, "graph-b");
  std::atomic<bool> holder_ready{false}, release{false};
  simple_lock(&a);  // taken before the spawn so the ABBA block is certain
  auto t = kthread::spawn("abba", [&] {
    simple_lock(&b);
    holder_ready.store(true);
    simple_lock(&a);  // blocks: main holds a
    simple_unlock(&a);
    simple_unlock(&b);
  });
  while (!holder_ready.load()) std::this_thread::yield();
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    // From a third thread, observe the a/b cross-wait once main blocks on b.
    auto c = wait_graph::instance().wait_for_cycle(2000);
    done.store(c.has_value());
    release.store(true);
  });
  // Create the cycle: we hold a, wait for b.
  // (The watcher breaks it by observing; we time-bound via try loop.)
  wait_graph::instance().thread_waits(current_thread_token(), &b, "graph-b");
  while (!release.load()) std::this_thread::yield();
  wait_graph::instance().thread_wait_done(current_thread_token(), &b);
  simple_unlock(&a);
  t->join();
  watcher.join();
  EXPECT_TRUE(done.load());
}

TEST(WaitGraph, ComplexLockHoldersAndWaitersTracked) {
  deadlock_tracing_scope scope;
  lock_data_t l;
  lock_init(&l, true, "tracked-complex");
  lock_read(&l);  // we are registered as a read holder
  std::atomic<bool> started{false};
  auto writer = kthread::spawn("writer", [&] {
    started.store(true);
    lock_write(&l);  // waits on us → edge registered
    lock_done(&l);
  });
  while (!started.load()) std::this_thread::yield();
  // Close a synthetic cycle: pretend we wait on something the writer holds.
  int token_resource = 0;
  wait_graph::instance().resource_held(&token_resource, writer->token(), "synthetic");
  wait_graph::instance().thread_waits(current_thread_token(), &token_resource, "synthetic");
  auto c = wait_graph::instance().wait_for_cycle(2000);
  EXPECT_TRUE(c.has_value());
  wait_graph::instance().thread_wait_done(current_thread_token(), &token_resource);
  lock_done(&l);
  writer->join();
}

// --- lock-order validator ---

struct validator_fixture : ::testing::Test {
  void SetUp() override {
    lock_order_validator::instance().set_enabled(true);
    lock_order_validator::instance().take_violations();
  }
  void TearDown() override {
    lock_order_validator::instance().take_violations();
    lock_order_validator::instance().set_enabled(false);
  }
};

constexpr lock_class map_class{"vmtest", "map", 0};
constexpr lock_class object_class{"vmtest", "object", 1};
constexpr lock_class other_subsystem{"ipctest", "space", 0};

TEST_F(validator_fixture, InOrderAcquisitionIsClean) {
  int map_lock = 0, obj_lock = 0;
  auto& v = lock_order_validator::instance();
  v.on_acquire(&map_lock, map_class);
  v.on_acquire(&obj_lock, object_class);
  v.on_release(&obj_lock);
  v.on_release(&map_lock);
  EXPECT_TRUE(v.take_violations().empty());
}

TEST_F(validator_fixture, ReverseOrderIsFlagged) {
  int map_lock = 0, obj_lock = 0;
  auto& v = lock_order_validator::instance();
  v.on_acquire(&obj_lock, object_class);
  v.on_acquire(&map_lock, map_class);  // object before map: violation
  auto violations = v.take_violations();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("vmtest"), std::string::npos);
  v.on_release(&map_lock);
  v.on_release(&obj_lock);
}

TEST_F(validator_fixture, SameRankRequiresAddressOrder) {
  int locks[2] = {0, 0};
  auto& v = lock_order_validator::instance();
  // Increasing address: fine.
  v.on_acquire(&locks[0], map_class);
  v.on_acquire(&locks[1], map_class);
  EXPECT_TRUE(v.take_violations().empty());
  v.on_release(&locks[1]);
  v.on_release(&locks[0]);
  // Decreasing address: flagged.
  v.on_acquire(&locks[1], map_class);
  v.on_acquire(&locks[0], map_class);
  EXPECT_EQ(v.take_violations().size(), 1u);
  v.on_release(&locks[0]);
  v.on_release(&locks[1]);
}

TEST_F(validator_fixture, DifferentSubsystemsAreIndependent) {
  // The paper's point: conventions are per-subsystem; no single hierarchy.
  int obj_lock = 0, space_lock = 0;
  auto& v = lock_order_validator::instance();
  v.on_acquire(&obj_lock, object_class);
  v.on_acquire(&space_lock, other_subsystem);  // rank 0 after rank 1, but other subsystem
  EXPECT_TRUE(v.take_violations().empty());
  v.on_release(&space_lock);
  v.on_release(&obj_lock);
}

// A hold recorded while the validator was on is retired by its release even
// when the validator is off by then, so it cannot flag a later acquisition.
TEST_F(validator_fixture, ReleaseWhileDisabledRetiresTheHold) {
  constexpr lock_class hi_class{"vmtest", "hi", 2};
  constexpr lock_class lo_class{"vmtest", "lo", 1};
  int hi_lock = 0, lo_lock = 0;
  auto& v = lock_order_validator::instance();
  v.on_acquire(&hi_lock, hi_class);
  v.set_enabled(false);
  v.on_release(&hi_lock);
  v.set_enabled(true);
  v.on_acquire(&lo_lock, lo_class);
  EXPECT_TRUE(v.take_violations().empty());
  v.on_release(&lo_lock);
}

TEST_F(validator_fixture, PanicModeEscalates) {
  testing::panic_hook_scope hook;
  auto& v = lock_order_validator::instance();
  v.set_panic_on_violation(true);
  int map_lock = 0, obj_lock = 0;
  v.on_acquire(&obj_lock, object_class);
  EXPECT_THROW(v.on_acquire(&map_lock, map_class), panic_error);
  v.set_panic_on_violation(false);
  v.on_release(&map_lock);
  v.on_release(&obj_lock);
}

// Stress the wait-graph under concurrent edge churn while a checker thread
// runs find_cycle() the whole time. The edge set is acyclic by
// construction (thread i only waits on resources held by higher-indexed
// threads), so any reported cycle is a false positive; any crash or hang
// is a locking bug in the graph itself. This is the pattern the watchdog
// monitor relies on: find_cycle() from an unrelated thread mid-churn.
TEST(WaitGraphStress, ConcurrentChurnYieldsNoFalseCycles) {
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  constexpr int workers = 4;
  constexpr int rounds = 2000;
  int resources[workers] = {};
  std::atomic<bool> stop{false};
  std::atomic<int> false_cycles{0};

  std::thread checker([&] {
    while (!stop.load()) {
      if (g.find_cycle().has_value()) false_cycles.fetch_add(1);
      (void)g.held_resources();  // exercise the dump path concurrently
    }
  });

  std::vector<std::thread> ts;
  for (int i = 0; i < workers; ++i) {
    ts.emplace_back([&, i] {
      const void* me = current_thread_token();
      g.name_thread(me, std::string("churn") += std::to_string(i));
      for (int r = 0; r < rounds; ++r) {
        g.resource_held(&resources[i], me, "res");
        if (i + 1 < workers) {
          // Edge i -> i+1 only: the digraph stays a DAG at all times.
          g.thread_waits(me, &resources[i + 1], "res");
          g.thread_wait_done(me, &resources[i + 1]);
        }
        g.resource_released(&resources[i], me);
      }
    });
  }
  for (auto& t : ts) t.join();
  stop.store(true);
  checker.join();
  EXPECT_EQ(false_cycles.load(), 0);
  EXPECT_FALSE(g.find_cycle().has_value());
  g.clear();
}

// A real cycle formed while the churn above could also be racing: the
// detector must still find it deterministically once the edges are in.
TEST(WaitGraphStress, CycleFoundAmidUnrelatedChurn) {
  deadlock_tracing_scope scope;
  wait_graph& g = wait_graph::instance();
  int ra = 0, rb = 0, noise_res = 0;
  char ta, tb;

  std::atomic<bool> stop{false};
  std::thread noise([&] {
    const void* me = current_thread_token();
    while (!stop.load()) {
      g.resource_held(&noise_res, me, "noise");
      g.resource_released(&noise_res, me);
    }
  });

  g.resource_held(&ra, &ta, "cyc-a");
  g.resource_held(&rb, &tb, "cyc-b");
  g.thread_waits(&ta, &rb, "cyc-b");
  g.thread_waits(&tb, &ra, "cyc-a");
  auto c = g.find_cycle();
  stop.store(true);
  noise.join();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->threads.size(), 2u);
  EXPECT_NE(c->description.find("cyc-a"), std::string::npos);
  EXPECT_NE(c->description.find("cyc-b"), std::string::npos);
  g.clear();
}

TEST_F(validator_fixture, OrderedHoldRaii) {
  int map_lock = 0;
  {
    ordered_hold h(&map_lock, map_class);
    // Held entry present: an equal-rank lower address would be flagged.
  }
  // Released: same lock again is clean.
  ordered_hold h2(&map_lock, map_class);
  EXPECT_TRUE(lock_order_validator::instance().take_violations().empty());
}

}  // namespace
}  // namespace mach
