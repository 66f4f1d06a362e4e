// Tests for the Mach event-wait primitives (paper section 6) and kthread.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "sched/event.h"
#include "sync/simple_lock.h"
#include "tests/test_util.h"

// Counts each thread's heap allocations, so a test can assert that a path
// allocates nothing.
namespace {
thread_local std::size_t t_allocations = 0;
}  // namespace

// Out of line, so GCC does not pair an inlined malloc with this free.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mach {
namespace {

using namespace std::chrono_literals;

int dummy_event_a, dummy_event_b;

TEST(KThread, SpawnRunsAndJoins) {
  std::atomic<int> ran{0};
  auto t = kthread::spawn("worker", [&] { ran.store(1); });
  t->join();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(t->name(), "worker");
  EXPECT_NE(t->token(), nullptr);
}

TEST(KThread, CurrentIsStablePerThread) {
  kthread& a = kthread::current();
  kthread& b = kthread::current();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.token(), current_thread_token());
}

TEST(KThread, SpawnedThreadSeesItselfAsCurrent) {
  const kthread* inside = nullptr;
  auto t = kthread::spawn("self", [&] { inside = &kthread::current(); });
  t->join();
  EXPECT_EQ(inside, t.get());
}

TEST(Event, WakeupBeforeBlockShortCircuits) {
  // The core race the split primitives close: the event occurring between
  // assert_wait and thread_block converts the block into a no-op.
  reset_event_counters();
  assert_wait(&dummy_event_a);
  thread_wakeup(&dummy_event_a);
  wait_result r = thread_block();
  EXPECT_EQ(r, wait_result::awakened);
  auto c = event_counters();
  EXPECT_EQ(c.blocks_short_circuited, 1u);
  EXPECT_EQ(c.blocks_suspended, 0u);
}

TEST(Event, BlockWithoutAssertIsYield) {
  EXPECT_EQ(thread_block(), wait_result::not_waiting);
}

TEST(Event, WakeupWithNoWaiterIsCounted) {
  reset_event_counters();
  thread_wakeup(&dummy_event_b);
  EXPECT_EQ(event_counters().wakeups_no_waiter, 1u);
}

TEST(Event, BlockedThreadIsAwakened) {
  std::atomic<bool> entered{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("waiter", [&] {
    assert_wait(&dummy_event_a);
    entered.store(true);
    result.store(static_cast<int>(thread_block()));
  });
  while (!entered.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);  // give it time to actually suspend
  thread_wakeup(&dummy_event_a);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::awakened));
}

TEST(Event, WakeupIsEventSpecific) {
  std::atomic<int> woken{0};
  std::atomic<int> asserted{0};
  auto waiter = [&](event_t e) {
    return [&woken, &asserted, e] {
      assert_wait(e);
      asserted.fetch_add(1);
      thread_block();
      woken.fetch_add(1);
    };
  };
  auto ta = kthread::spawn("wa", waiter(&dummy_event_a));
  auto tb = kthread::spawn("wb", waiter(&dummy_event_b));
  while (asserted.load() < 2) std::this_thread::yield();
  thread_wakeup(&dummy_event_a);
  ta->join();
  EXPECT_EQ(woken.load(), 1);  // only the event-a waiter woke
  thread_wakeup(&dummy_event_b);
  tb->join();
  EXPECT_EQ(woken.load(), 2);
}

TEST(Event, WakeupAllWakesEveryWaiter) {
  constexpr int n = 6;
  std::atomic<int> ready{0};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < n; ++i) {
    std::string wname = "w";
    wname += std::to_string(i);
    threads.push_back(kthread::spawn(std::move(wname), [&] {
      assert_wait(&dummy_event_a);
      ready.fetch_add(1);
      thread_block();
    }));
  }
  while (ready.load() < n) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);
  thread_wakeup(&dummy_event_a);
  for (auto& t : threads) t->join();  // hangs if anyone was missed
}

TEST(Event, WakeupOneWakesExactlyOne) {
  std::atomic<int> ready{0};
  std::atomic<int> woken{0};
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < 3; ++i) {
    threads.push_back(kthread::spawn("w1_" + std::to_string(i), [&] {
      assert_wait(&dummy_event_a);
      ready.fetch_add(1);
      thread_block();
      woken.fetch_add(1);
    }));
  }
  while (ready.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);
  thread_wakeup_one(&dummy_event_a);
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(woken.load(), 1);
  thread_wakeup(&dummy_event_a);  // release the rest
  for (auto& t : threads) t->join();
}

// Wake-one hands its single waiter over directly: the waker allocates
// nothing.
TEST(Event, WakeupOneDoesNotAllocate) {
  thread_wakeup_one(&dummy_event_b);  // no waiter: sets up the counters
  std::atomic<bool> queued{false};
  auto t = kthread::spawn("w-alloc", [&] {
    assert_wait(&dummy_event_b);
    queued.store(true);
    thread_block();
  });
  while (!queued.load()) std::this_thread::yield();
  const std::size_t before = t_allocations;
  thread_wakeup_one(&dummy_event_b);
  EXPECT_EQ(t_allocations - before, 0u);
  t->join();
}

TEST(Event, ClearWaitWakesSpecificThread) {
  std::atomic<bool> ready{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("cleared", [&] {
    assert_wait(&dummy_event_a);
    ready.store(true);
    result.store(static_cast<int>(thread_block()));
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  clear_wait(*t, wait_result::cleared);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::cleared));
}

TEST(Event, ClearWaitOnNonWaitingThreadIsNoop) {
  std::atomic<bool> done{false};
  auto t = kthread::spawn("idle", [&] {
    while (!done.load()) std::this_thread::yield();
  });
  clear_wait(*t);  // must not blow up or corrupt anything
  done.store(true);
  t->join();
}

TEST(Event, TimeoutExpiresAndCancelsAssertion) {
  assert_wait(&dummy_event_a);
  auto start = std::chrono::steady_clock::now();
  wait_result r = thread_block_timeout(30ms);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(r, wait_result::timed_out);
  EXPECT_GE(elapsed, 25ms);
  // The assertion must be gone: a later wakeup finds no waiter.
  reset_event_counters();
  thread_wakeup(&dummy_event_a);
  EXPECT_EQ(event_counters().wakeups_no_waiter, 1u);
}

TEST(Event, TimeoutNotTakenWhenWakeupArrives) {
  std::atomic<bool> ready{false};
  std::atomic<int> result{-1};
  auto t = kthread::spawn("timed", [&] {
    assert_wait(&dummy_event_b);
    ready.store(true);
    result.store(static_cast<int>(thread_block_timeout(5s)));
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  thread_wakeup(&dummy_event_b);
  t->join();
  EXPECT_EQ(result.load(), static_cast<int>(wait_result::awakened));
}

TEST(Event, DoubleAssertWaitIsFatal) {
  // "the blocking operations will call assert_wait() a second time (this
  // is fatal)" — paper section 8.
  testing::panic_hook_scope hook;
  assert_wait(&dummy_event_a);
  EXPECT_THROW(assert_wait(&dummy_event_b), panic_error);
  // Clean up the outstanding assertion.
  thread_wakeup(&dummy_event_a);
  thread_block();
}

TEST(Event, BlockWhileHoldingSimpleLockIsFatal) {
  testing::panic_hook_scope hook;
  simple_lock_data_t l;
  simple_lock_init(&l, "held-at-block");
  simple_lock(&l);
  assert_wait(&dummy_event_a);
  EXPECT_THROW(thread_block(), panic_error);
  simple_unlock(&l);
  // Drain the assertion now that the lock is gone.
  thread_wakeup(&dummy_event_a);
  thread_block();
}

TEST(Event, ThreadSleepReleasesLockAndWaits) {
  simple_lock_data_t l;
  simple_lock_init(&l, "sleep-lock");
  std::atomic<bool> ready{false};
  std::atomic<bool> lock_was_free{false};
  auto sleeper = kthread::spawn("sleeper", [&] {
    simple_lock(&l);
    ready.store(true);
    thread_sleep(&dummy_event_a, &l);  // releases l, then blocks
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  // The lock must be free while the sleeper is blocked.
  lock_was_free.store(simple_lock_try(&l));
  if (lock_was_free.load()) simple_unlock(&l);
  thread_wakeup(&dummy_event_a);
  sleeper->join();
  EXPECT_TRUE(lock_was_free.load());
}

// Property sweep: N producers wake N consumers, no lost wakeups, for a
// range of concurrency levels.
class EventStressTest : public ::testing::TestWithParam<int> {};

TEST_P(EventStressTest, NoLostWakeups) {
  const int pairs = GetParam();
  constexpr int rounds = 300;
  std::vector<std::unique_ptr<kthread>> threads;
  std::vector<std::atomic<int>> tokens(static_cast<std::size_t>(pairs));
  for (auto& t : tokens) t.store(0);
  for (int p = 0; p < pairs; ++p) {
    threads.push_back(kthread::spawn("cons" + std::to_string(p), [&, p] {
      for (int r = 0; r < rounds; ++r) {
        assert_wait(&tokens[static_cast<std::size_t>(p)]);
        if (tokens[static_cast<std::size_t>(p)].load() > r) {
          // Already produced; the wakeup may have fired before our
          // assert_wait. Cancel our own wait (the paper's thread-based
          // occurrence) and move on.
          clear_wait(kthread::current());
          thread_block();
          continue;
        }
        thread_block_timeout(std::chrono::seconds(10));
      }
    }));
  }
  for (int p = 0; p < pairs; ++p) {
    threads.push_back(kthread::spawn("prod" + std::to_string(p), [&, p] {
      for (int r = 0; r < rounds; ++r) {
        tokens[static_cast<std::size_t>(p)].fetch_add(1);
        thread_wakeup(&tokens[static_cast<std::size_t>(p)]);
        if (r % 64 == 0) std::this_thread::yield();
      }
    }));
  }
  for (auto& t : threads) t->join();
  for (auto& t : tokens) EXPECT_EQ(t.load(), rounds);
}

INSTANTIATE_TEST_SUITE_P(Concurrency, EventStressTest, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace mach
