// Property-based tests: randomized multi-threaded workloads checked
// against shadow models of the invariants the paper's protocols guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <set>

#include "base/rng.h"
#include "ipc/port.h"
#include "kern/object.h"
#include "kern/refcount.h"
#include "kern/zalloc.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// --- complex lock: the Multiple protocol invariant ---
// At any instant: either at most one writer and no readers are inside, or
// any number of readers and no writer.
struct rw_model {
  std::atomic<int> readers{0};
  std::atomic<int> writers{0};
  std::atomic<bool> violated{false};

  void enter_read() {
    readers.fetch_add(1);
    check();
  }
  void exit_read() { readers.fetch_sub(1); }
  void enter_write() {
    writers.fetch_add(1);
    check();
  }
  void exit_write() { writers.fetch_sub(1); }
  void check() {
    int w = writers.load();
    int r = readers.load();
    if (w > 1 || (w >= 1 && r > 0)) violated.store(true);
  }
};

class ComplexLockPropertyTest : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(ComplexLockPropertyTest, MultipleProtocolInvariantUnderRandomOps) {
  const bool can_sleep = std::get<0>(GetParam());
  const int threads = std::get<1>(GetParam());
  lock_data_t lock;
  lock_init(&lock, can_sleep, "property");
  rw_model model;
  constexpr int iters = 4000;

  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn("prop" + std::to_string(t), [&, t] {
      xorshift64 rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < iters; ++i) {
        switch (rng.next_below(6)) {
          case 0:  // plain read
          case 1: {
            lock_read(&lock);
            model.enter_read();
            model.exit_read();
            lock_done(&lock);
            break;
          }
          case 2: {  // plain write
            lock_write(&lock);
            model.enter_write();
            model.exit_write();
            lock_done(&lock);
            break;
          }
          case 3: {  // read, attempt upgrade
            lock_read(&lock);
            model.enter_read();
            model.exit_read();
            if (!lock_read_to_write(&lock)) {
              model.enter_write();
              model.exit_write();
              lock_done(&lock);
            }
            // on failure the read hold is already gone
            break;
          }
          case 4: {  // write, downgrade
            lock_write(&lock);
            model.enter_write();
            model.exit_write();
            lock_write_to_read(&lock);
            model.enter_read();
            model.exit_read();
            lock_done(&lock);
            break;
          }
          default: {  // try-variants
            if (lock_try_write(&lock)) {
              model.enter_write();
              model.exit_write();
              lock_done(&lock);
            } else if (lock_try_read(&lock)) {
              model.enter_read();
              model.exit_read();
              lock_done(&lock);
            }
            break;
          }
        }
      }
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_FALSE(model.violated.load());
  // Quiescent state: a fresh write acquisition succeeds (nothing leaked).
  EXPECT_TRUE(lock_try_write(&lock));
  lock_done(&lock);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ComplexLockPropertyTest,
    ::testing::Combine(::testing::Values(true, false), ::testing::Values(2, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "sleep" : "spin") + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

// Readers really do overlap while writers exclude them. The overlap is
// forced, not hoped for: in a writer-free opening phase two readers each
// hold the lock until both are inside, so a lock that made readers
// exclusive fails after a bounded wait instead of passing whenever the
// host happened to run the readers one after another.
TEST(ComplexLockProperty, ReadersOverlapWritersDoNot) {
  lock_data_t lock;
  lock_init(&lock, true, "overlap");
  rw_model model;

  std::atomic<int> inside{0};
  std::atomic<int> met{0};  // readers that saw the other reader inside
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  std::vector<std::unique_ptr<kthread>> openers;
  for (int t = 0; t < 2; ++t) {
    openers.push_back(kthread::spawn("ov-open" + std::to_string(t), [&] {
      lock_read(&lock);
      model.enter_read();
      inside.fetch_add(1);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (inside.load() >= 2) met.fetch_add(1);
      model.exit_read();
      lock_done(&lock);
    }));
  }
  for (auto& o : openers) o->join();
  EXPECT_EQ(met.load(), 2) << "readers never overlapped";

  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < 4; ++t) {
    workers.push_back(kthread::spawn("ov" + std::to_string(t), [&, t] {
      xorshift64 rng(static_cast<std::uint64_t>(t));
      for (int i = 0; i < 1500; ++i) {
        if (rng.next_below(10) == 0) {
          lock_write(&lock);
          model.enter_write();
          model.exit_write();
          lock_done(&lock);
        } else {
          lock_read(&lock);
          model.enter_read();
          std::this_thread::yield();  // widen the read section for a writer to collide with
          model.exit_read();
          lock_done(&lock);
        }
      }
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_FALSE(model.violated.load());
}

// More readers than kmon ways, so threads share rows of the visible-reader
// table and some reads fall back to the interlock while others are biased,
// against writers that revoke the bias. The process runs more threads than
// CPUs, so a reader is sometimes preempted between reading the bias and
// publishing its slot: exactly the reader a writer's revocation must catch.
TEST(ComplexLockProperty, BiasedReadersBeyondWaysExcludeWriters) {
  for (const bool can_sleep : {true, false}) {
    lock_data_t lock;
    lock_init(&lock, can_sleep, "bias-property");
    rw_model model;
    constexpr int threads = static_cast<int>(kmon::num_ways) + 4;
    const auto deadline = std::chrono::steady_clock::now() + 300ms;
    std::vector<std::unique_ptr<kthread>> workers;
    for (int t = 0; t < threads; ++t) {
      workers.push_back(kthread::spawn("bias" + std::to_string(t), [&, t] {
        xorshift64 rng(static_cast<std::uint64_t>(t) * 131 + 5);
        while (std::chrono::steady_clock::now() < deadline && !model.violated.load()) {
          if (rng.next_below(8) == 0) {
            lock_write(&lock);
            model.enter_write();
            for (int i = 0; i < 64; ++i) cpu_relax();  // a hold a late reader can overlap
            model.check();
            model.exit_write();
            lock_done(&lock);
          } else {
            lock_read(&lock);
            model.enter_read();
            model.exit_read();
            lock_done(&lock);
          }
        }
      }));
    }
    for (auto& w : workers) w->join();
    EXPECT_FALSE(model.violated.load()) << (can_sleep ? "sleep" : "spin");
    EXPECT_TRUE(lock_try_write(&lock));
    lock_done(&lock);
  }
}

// --- refcount types: the atomic count agrees with the paper's locked
// count on observable semantics (the equivalence contract of
// kern/refcount.h) ---

class RefcountPolicyEquivalence : public ::testing::TestWithParam<testing::count_type> {};

INSTANTIATE_TEST_SUITE_P(AllPolicies, RefcountPolicyEquivalence,
                         ::testing::Values(testing::count_type::locked,
                                           testing::count_type::atomic),
                         [](const ::testing::TestParamInfo<testing::count_type>& info) {
                           return testing::count_type_name(info.param);
                         });

// Single-threaded: each count must track a plain integer oracle exactly,
// step by step, including the release()'s last-ness verdict.
TEST_P(RefcountPolicyEquivalence, SequentialOpsMatchOracle) {
  testing::with_count_type(GetParam(), [](auto count) {
    using Count = typename decltype(count)::type;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Count c(1);
      int oracle = 1;
      xorshift64 rng(seed * 77);
      for (int i = 0; i < 2000 && oracle > 0; ++i) {
        if (oracle == 1 || rng.chance_per_mille(520)) {
          c.acquire();
          ++oracle;
        } else {
          bool last = c.release();
          --oracle;
          EXPECT_EQ(last, oracle == 0) << "seed " << seed << " step " << i;
        }
        EXPECT_EQ(c.value(), oracle) << "seed " << seed << " step " << i;
      }
      while (oracle > 0) {
        EXPECT_EQ(c.release(), --oracle == 0);
      }
    }
  });
}

// The core destruction-safety property: however the threads interleave,
// release() returns true EXACTLY once — the caller that gets true is the
// unique destroyer. Main pre-acquires every reference so worker threads
// release references they did not acquire (the general cross-thread case).
TEST_P(RefcountPolicyEquivalence, ReleaseReturnsTrueExactlyOnce) {
  testing::with_count_type(GetParam(), [](auto count) {
    using Count = typename decltype(count)::type;
    constexpr int threads = 4;
    constexpr int per_thread = 500;
    for (int round = 0; round < 10; ++round) {
      Count c(1);
      for (int i = 0; i < threads * per_thread - 1; ++i) c.acquire();
      std::atomic<int> lasts{0};
      std::vector<std::unique_ptr<kthread>> workers;
      for (int t = 0; t < threads; ++t) {
        workers.push_back(kthread::spawn("rel" + std::to_string(t), [&] {
          for (int i = 0; i < per_thread; ++i) {
            if (c.release()) lasts.fetch_add(1);
          }
        }));
      }
      for (auto& w : workers) w->join();
      EXPECT_EQ(lasts.load(), 1) << "round " << round;
      EXPECT_EQ(c.value(), 0);
    }
  });
}

// Dead is sticky and identically fatal: after the last release, both
// acquire (clone-from-dead) and release (over-release) panic, repeatedly.
TEST_P(RefcountPolicyEquivalence, DeadCountPanicsIdentically) {
  testing::panic_hook_scope hook;
  testing::with_count_type(GetParam(), [](auto count) {
    using Count = typename decltype(count)::type;
    Count c(2);
    EXPECT_FALSE(c.release());
    EXPECT_TRUE(c.release());
    EXPECT_THROW(c.acquire(), panic_error);
    EXPECT_THROW((void)c.release(), panic_error);
    EXPECT_THROW(c.acquire(), panic_error);  // still dead, still fatal
  });
}

// Randomized interleavings: threads keep a local held-balance (never
// releasing more than they acquired, on top of the creation reference held
// by main), so the final count must be exactly 1 for each count.
TEST_P(RefcountPolicyEquivalence, RandomizedInterleavingsMatchNetOracle) {
  testing::with_count_type(GetParam(), [](auto count) {
    using Count = typename decltype(count)::type;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Count c(1);
      std::vector<std::unique_ptr<kthread>> workers;
      for (int t = 0; t < 4; ++t) {
        workers.push_back(kthread::spawn("mix" + std::to_string(t), [&, t, seed] {
          xorshift64 rng(seed * 1009 + static_cast<std::uint64_t>(t));
          int held = 0;
          for (int i = 0; i < 4000; ++i) {
            if (held == 0 || rng.chance_per_mille(550)) {
              c.acquire();
              ++held;
            } else {
              EXPECT_FALSE(c.release());
              --held;
            }
          }
          while (held-- > 0) EXPECT_FALSE(c.release());
        }));
      }
      for (auto& w : workers) w->join();
      EXPECT_EQ(c.value(), 1) << "seed " << seed;
    }
  });
}

// --- references: random clone/release trees balance exactly ---
TEST(RefcountProperty, RandomCloneReleaseTreesBalance) {
  struct plain : kobject {
    plain() : kobject("prop") {}
  };
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto root = make_object<plain>();
    std::atomic<long> net{0};
    std::vector<std::unique_ptr<kthread>> workers;
    for (int t = 0; t < 4; ++t) {
      workers.push_back(kthread::spawn("rc" + std::to_string(t), [&, t, seed] {
        xorshift64 rng(seed * 100 + static_cast<std::uint64_t>(t));
        std::vector<ref_ptr<plain>> held;
        for (int i = 0; i < 5000; ++i) {
          if (held.empty() || rng.chance_per_mille(550)) {
            held.push_back(root);  // clone
            net.fetch_add(1);
          } else {
            held.pop_back();  // release
            net.fetch_sub(1);
          }
        }
        net.fetch_sub(static_cast<long>(held.size()));  // vector dtor releases
      }));
    }
    for (auto& w : workers) w->join();
    EXPECT_EQ(net.load(), 0);
    EXPECT_EQ(root->ref_count(), 1) << "seed " << seed;
  }
}

// --- ports: every message delivered exactly once ---
TEST(PortProperty, MessageConservation) {
  auto p = make_object<port>();
  p->set_queue_limit(100000);
  constexpr int senders = 3, receivers = 3, per_sender = 2000;
  std::mutex seen_mutex;
  std::set<std::uint64_t> seen;
  std::atomic<int> received{0};
  std::atomic<bool> duplicate{false};

  std::vector<std::unique_ptr<kthread>> threads;
  for (int s = 0; s < senders; ++s) {
    threads.push_back(kthread::spawn("send" + std::to_string(s), [&, s] {
      for (int i = 0; i < per_sender; ++i) {
        message m(1, {static_cast<std::uint64_t>(s) * 1000000 + static_cast<std::uint64_t>(i)});
        ASSERT_EQ(p->send(std::move(m)), KERN_SUCCESS);
      }
    }));
  }
  for (int r = 0; r < receivers; ++r) {
    threads.push_back(kthread::spawn("recv" + std::to_string(r), [&] {
      while (received.load() < senders * per_sender) {
        auto m = p->receive(100ms);
        if (!m.has_value()) continue;
        received.fetch_add(1);
        std::lock_guard<std::mutex> g(seen_mutex);
        if (!seen.insert(m->data[0]).second) duplicate.store(true);
      }
    }));
  }
  for (auto& t : threads) t->join();
  EXPECT_FALSE(duplicate.load());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(senders * per_sender));
  EXPECT_EQ(p->queued(), 0u);
}

// --- zones: randomized alloc/free with mixed wait/nowait ---
TEST(ZoneProperty, RandomAllocFreeNeverExceedsCapacityOrLeaks) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    constexpr std::size_t capacity = 6;
    zone z("prop-zone", 64, capacity);
    std::vector<std::unique_ptr<kthread>> workers;
    std::atomic<bool> over{false};
    for (int t = 0; t < 4; ++t) {
      workers.push_back(kthread::spawn("za" + std::to_string(t), [&, t, seed] {
        xorshift64 rng(seed * 991 + static_cast<std::uint64_t>(t));
        std::vector<void*> mine;
        for (int i = 0; i < 2000; ++i) {
          if (mine.size() < 2 && rng.chance_per_mille(600)) {
            // Mix blocking and non-blocking allocation paths.
            void* p = rng.chance_per_mille(500) ? z.alloc() : z.alloc_nowait();
            if (p != nullptr) mine.push_back(p);
          } else if (!mine.empty()) {
            z.free(mine.back());
            mine.pop_back();
          }
          if (z.in_use() > capacity) over.store(true);
        }
        for (void* p : mine) z.free(p);
      }));
    }
    for (auto& w : workers) w->join();
    EXPECT_FALSE(over.load());
    EXPECT_EQ(z.in_use(), 0u) << "seed " << seed;
  }
}

// --- events: wakeup/clear_wait storms never lose a blocked thread ---
TEST(EventProperty, MixedWakeupAndClearNeverStrandsWaiter) {
  for (int round = 0; round < 30; ++round) {
    std::atomic<bool> entered{false};
    std::atomic<bool> woke{false};
    int event = 0;
    auto waiter = kthread::spawn("waiter", [&] {
      assert_wait(&event);
      entered.store(true);
      thread_block();
      woke.store(true);
    });
    while (!entered.load()) std::this_thread::yield();
    // Race a wakeup against a clear_wait; at least one must land.
    auto clearer = kthread::spawn("clearer", [&] { clear_wait(*waiter); });
    thread_wakeup(&event);
    clearer->join();
    waiter->join();
    EXPECT_TRUE(woke.load()) << "round " << round;
  }
}

}  // namespace
}  // namespace mach
