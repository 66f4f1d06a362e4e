// Tests for complex locks (Appendix B): Multiple protocol with writers'
// priority, Sleep and Recursive options, upgrades/downgrades, try-variants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Most tests run each lock in both Sleep and spin modes.
class ComplexLockModeTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { lock_init(&l_, /*can_sleep=*/GetParam(), "test-lock"); }
  lock_data_t l_;
};

TEST_P(ComplexLockModeTest, WriteExcludesWriters) {
  constexpr int threads = 4;
  constexpr int iters = 5000;
  long counter = 0;
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn(std::string("w").append(std::to_string(t)), [&] {
      for (int i = 0; i < iters; ++i) {
        lock_write(&l_);
        ++counter;
        lock_done(&l_);
      }
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_EQ(counter, static_cast<long>(threads) * iters);
  EXPECT_EQ(lock_stats(&l_).write_acquisitions, static_cast<std::uint64_t>(threads) * iters);
}

TEST_P(ComplexLockModeTest, ReadersRunConcurrently) {
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<bool> go{false};
  constexpr int readers = 4;
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < readers; ++t) {
    workers.push_back(kthread::spawn(std::string("r").append(std::to_string(t)), [&] {
      while (!go.load()) std::this_thread::yield();
      lock_read(&l_);
      int now = inside.fetch_add(1) + 1;
      int prev = max_inside.load();
      while (prev < now && !max_inside.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(20ms);
      inside.fetch_sub(1);
      lock_done(&l_);
    }));
  }
  go.store(true);
  for (auto& w : workers) w->join();
  // All readers overlap inside their 20ms windows.
  EXPECT_GE(max_inside.load(), 2);
}

TEST_P(ComplexLockModeTest, WriterExcludesReaders) {
  std::atomic<bool> writer_in{false};
  std::atomic<bool> violation{false};
  std::atomic<bool> stop{false};
  auto writer = kthread::spawn("writer", [&] {
    for (int i = 0; i < 200; ++i) {
      lock_write(&l_);
      writer_in.store(true);
      for (int s = 0; s < 100; ++s) cpu_relax();
      writer_in.store(false);
      lock_done(&l_);
    }
    stop.store(true);
  });
  auto reader = kthread::spawn("reader", [&] {
    while (!stop.load()) {
      lock_read(&l_);
      if (writer_in.load()) violation.store(true);
      lock_done(&l_);
    }
  });
  writer->join();
  reader->join();
  EXPECT_FALSE(violation.load());
}

TEST_P(ComplexLockModeTest, TryWriteFailsWhenReadHeld) {
  lock_read(&l_);
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_write(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TryReadFailsWhenWriteHeld) {
  lock_write(&l_);
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_read(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TrySucceedsWhenFree) {
  EXPECT_TRUE(lock_try_read(&l_));
  lock_done(&l_);
  EXPECT_TRUE(lock_try_write(&l_));
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, TryReadSucceedsAlongsideReaders) {
  lock_read(&l_);
  std::atomic<bool> got{false};
  auto t = kthread::spawn("tryer", [&] {
    got.store(lock_try_read(&l_));
    if (got.load()) lock_done(&l_);
  });
  t->join();
  EXPECT_TRUE(got.load());
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, UpgradeSucceedsWhenSoleReader) {
  lock_read(&l_);
  EXPECT_FALSE(lock_read_to_write(&l_));  // FALSE = success (paper semantics)
  // Now held for write: try-read from elsewhere must fail.
  std::atomic<bool> got{true};
  auto t = kthread::spawn("tryer", [&] { got.store(lock_try_read(&l_)); });
  t->join();
  EXPECT_FALSE(got.load());
  lock_done(&l_);
  EXPECT_EQ(lock_stats(&l_).upgrades_succeeded, 1u);
}

TEST_P(ComplexLockModeTest, SecondUpgradeFailsAndDropsReadLock) {
  // Two readers race to upgrade: the paper requires the second to fail
  // *and lose its read hold* so the first can drain.
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < 2; ++t) {
    workers.push_back(kthread::spawn("up" + std::to_string(t), [&] {
      lock_read(&l_);
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (lock_read_to_write(&l_)) {
        failures.fetch_add(1);  // read lock already released
      } else {
        successes.fetch_add(1);
        lock_done(&l_);
      }
    }));
  }
  while (ready.load() < 2) std::this_thread::yield();
  go.store(true);
  for (auto& w : workers) w->join();
  EXPECT_EQ(successes.load(), 1);
  EXPECT_EQ(failures.load(), 1);
  // Everything was released: a fresh write acquisition must succeed.
  EXPECT_TRUE(lock_try_write(&l_));
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, DowngradeCannotFailAndAdmitsReaders) {
  lock_write(&l_);
  lock_write_to_read(&l_);
  std::atomic<bool> got{false};
  auto t = kthread::spawn("reader", [&] {
    got.store(lock_try_read(&l_));
    if (got.load()) lock_done(&l_);
  });
  t->join();
  EXPECT_TRUE(got.load());
  lock_done(&l_);
  EXPECT_EQ(lock_stats(&l_).downgrades, 1u);
}

TEST_P(ComplexLockModeTest, TryUpgradeKeepsReadLockOnFailure) {
  // lock_try_read_to_write does NOT drop the read lock when the upgrade
  // would deadlock (another upgrade pending) — unlike lock_read_to_write.
  lock_read(&l_);
  std::atomic<bool> other_upgraded{false};
  std::atomic<bool> release_reader{false};
  // A second reader upgrades first and holds the drain.
  auto other = kthread::spawn("other", [&] {
    lock_read(&l_);
    other_upgraded.store(true);
    // This blocks until the main thread's read hold is gone...
    bool failed = lock_read_to_write(&l_);
    EXPECT_FALSE(failed);
    lock_done(&l_);
    release_reader.store(true);
  });
  while (!other_upgraded.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);  // let `other` set want_upgrade
  EXPECT_FALSE(lock_try_read_to_write(&l_));
  // Our read hold survives: release it, letting `other` finish.
  lock_done(&l_);
  other->join();
  EXPECT_TRUE(release_reader.load());
}

TEST_P(ComplexLockModeTest, WriterPriorityHoldsOffNewReaders) {
  // Take a read hold, start a writer (which commits want_write while
  // draining), then check that a new reader cannot enter.
  lock_read(&l_);
  std::atomic<bool> writer_done{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    writer_done.store(true);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);  // writer is now draining us
  EXPECT_FALSE(writer_done.load());
  EXPECT_FALSE(lock_try_read(&l_)) << "reader admitted past a pending writer";
  lock_done(&l_);  // release our read hold; writer proceeds
  writer->join();
  EXPECT_TRUE(writer_done.load());
}

TEST_P(ComplexLockModeTest, NoPriorityVariantAdmitsReaders) {
  lock_set_writer_priority(&l_, false);
  lock_read(&l_);
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);
  // Without writers' priority, a new reader IS admitted while we still
  // hold the lock for reading — the starvation E3 measures.
  EXPECT_TRUE(lock_try_read(&l_));
  lock_done(&l_);
  lock_done(&l_);
  writer->join();
}

TEST_P(ComplexLockModeTest, RecursiveWriteAcquisition) {
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write(&l_);  // nested: would deadlock without the Recursive option
  lock_write(&l_);
  lock_done(&l_);
  lock_done(&l_);
  lock_clear_recursive(&l_);
  lock_done(&l_);
  EXPECT_TRUE(lock_try_write(&l_));  // fully released
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, RecursiveReadBypassesPendingWriter) {
  // Paper sec. 4: the recursion holder's requests are not blocked by a
  // pending write request, so it can finish and drop the lock.
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);  // downgrade; recursion stays set
  std::atomic<bool> writer_got_it{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    writer_got_it.store(true);
    lock_done(&l_);
  });
  std::this_thread::sleep_for(10ms);  // writer commits, drains us
  // An ordinary reader is refused...
  // ...but the recursive holder may still acquire for read:
  lock_read(&l_);
  lock_done(&l_);
  EXPECT_FALSE(writer_got_it.load());
  lock_clear_recursive(&l_);
  lock_done(&l_);  // final release; writer proceeds
  writer->join();
}

TEST_P(ComplexLockModeTest, RecursiveWriteAfterDowngradeIsFatal) {
  testing::panic_hook_scope hook;
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);
  EXPECT_THROW(lock_write(&l_), panic_error);
  lock_clear_recursive(&l_);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, UpgradeOfRecursiveReadIsFatal) {
  testing::panic_hook_scope hook;
  lock_write(&l_);
  lock_set_recursive(&l_);
  lock_write_to_read(&l_);
  EXPECT_THROW((void)lock_read_to_write(&l_), panic_error);
  lock_clear_recursive(&l_);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, SetRecursiveWithoutWriteHoldIsFatal) {
  testing::panic_hook_scope hook;
  lock_read(&l_);
  EXPECT_THROW(lock_set_recursive(&l_), panic_error);
  lock_done(&l_);
}

TEST_P(ComplexLockModeTest, MixedReadWriteStress) {
  constexpr int threads = 4;
  constexpr int iters = 3000;
  long shared = 0;
  std::atomic<long> read_sum{0};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int t = 0; t < threads; ++t) {
    workers.push_back(kthread::spawn(std::string("m").append(std::to_string(t)), [&, t] {
      for (int i = 0; i < iters; ++i) {
        if ((i + t) % 4 == 0) {
          lock_write(&l_);
          ++shared;
          lock_done(&l_);
        } else {
          lock_read(&l_);
          read_sum.fetch_add(shared >= 0 ? 1 : 0);
          lock_done(&l_);
        }
      }
    }));
  }
  for (auto& w : workers) w->join();
  long expected_writes = 0;
  for (int t = 0; t < threads; ++t)
    for (int i = 0; i < iters; ++i)
      if ((i + t) % 4 == 0) ++expected_writes;
  EXPECT_EQ(shared, expected_writes);
}

// --- reader bias (DESIGN.md decision 12) ---

// Interlocked reads until one turns the bias on (after a write that takes
// lock_bias_inhibit_reads + 1 of them).
void arm_bias(lock_t l) {
  for (int i = 0; i <= lock_bias_inhibit_reads && !l->read_bias.load(); ++i) {
    lock_read(l);
    lock_done(l);
  }
  ASSERT_TRUE(l->read_bias.load());
}

// A read hold that the calling thread took without the interlock: it does
// not show in lock_stats' interlocked read count.
void biased_read(lock_t l) {
  const std::uint64_t before = lock_stats(l).read_acquisitions;
  lock_read(l);
  EXPECT_EQ(lock_stats(l).read_acquisitions, before) << "the read took the interlock";
}

// A writer behind a biased reader waits (polls and sleeps, or spins)
// until the reader's release; the release wakes a sleeping writer.
TEST_P(ComplexLockModeTest, WriterWaitsOutBiasedReader) {
  arm_bias(&l_);
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release{false};
  auto reader = kthread::spawn("biased-reader", [&] {
    biased_read(&l_);
    reader_in.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    lock_done(&l_);
  });
  while (!reader_in.load()) std::this_thread::yield();
  std::atomic<bool> writer_done{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    writer_done.store(true);
    lock_done(&l_);
  });
  // Wait until the writer is parked behind the reader: asleep in Sleep
  // mode, spinning otherwise.
  while ((GetParam() ? lock_stats(&l_).sleeps : lock_stats(&l_).spins) == 0) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(writer_done.load()) << "writer entered past a biased reader";
  EXPECT_FALSE(l_.read_bias.load());
  release.store(true);
  reader->join();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!writer_done.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(writer_done.load()) << "the biased reader's release did not wake the writer";
  if (!writer_done.load()) thread_wakeup(&l_);  // free the writer so the test ends
  writer->join();
}

// Both upgrades work from a biased hold: the hold becomes a counted one
// and the upgrade drains it like any other.
TEST_P(ComplexLockModeTest, UpgradesWorkFromBiasedHold) {
  arm_bias(&l_);
  biased_read(&l_);
  EXPECT_FALSE(lock_read_to_write(&l_));  // FALSE = upgraded
  EXPECT_FALSE(l_.read_bias.load());
  EXPECT_FALSE(lock_try_read(&l_)) << "reader admitted during the upgraded hold";
  lock_done(&l_);

  arm_bias(&l_);
  biased_read(&l_);
  EXPECT_TRUE(lock_try_read_to_write(&l_));
  lock_write_to_read(&l_);
  lock_done(&l_);
  EXPECT_TRUE(lock_try_write(&l_)) << "a hold leaked through the upgrades";
  lock_done(&l_);
  const complex_lock_stats s = lock_stats(&l_);
  EXPECT_EQ(s.upgrades_succeeded, 2u);
  EXPECT_EQ(s.upgrades_failed, 0u);
}

// lock_try_write fails while another thread's biased read is visible, and
// succeeds once it is released.
TEST_P(ComplexLockModeTest, TryWriteFailsWhileBiasedReaderVisible) {
  arm_bias(&l_);
  std::atomic<bool> reader_in{false};
  std::atomic<bool> release{false};
  auto reader = kthread::spawn("biased-reader", [&] {
    biased_read(&l_);
    reader_in.store(true);
    while (!release.load()) std::this_thread::yield();
    lock_done(&l_);
  });
  while (!reader_in.load()) std::this_thread::yield();
  EXPECT_FALSE(lock_try_write(&l_));
  release.store(true);
  reader->join();
  EXPECT_TRUE(lock_try_write(&l_));
  lock_done(&l_);
}

// Without writers' priority a biased reader counts as a holder: new
// readers keep entering beside it while a writer waits (E3's ablation).
TEST_P(ComplexLockModeTest, NoPriorityVariantAdmitsReadersBesideBiasedReader) {
  lock_set_writer_priority(&l_, false);
  arm_bias(&l_);
  biased_read(&l_);
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l_);
    lock_done(&l_);
  });
  while (l_.read_bias.load()) std::this_thread::yield();  // the writer has revoked the bias
  EXPECT_TRUE(lock_try_read(&l_)) << "reader refused while a biased reader holds";
  lock_done(&l_);
  lock_done(&l_);
  writer->join();
}

INSTANTIATE_TEST_SUITE_P(SleepAndSpin, ComplexLockModeTest, ::testing::Values(true, false),
                         [](const auto& info) { return info.param ? "sleep" : "spin"; });

TEST(ComplexLock, SleepableTogglesDynamically) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/false, "toggle");
  lock_sleepable(&l, true);
  // A waiter must now block through the event system (observable via the
  // sleeps counter) rather than spin.
  lock_write(&l);
  auto t = kthread::spawn("blocked", [&] {
    lock_read(&l);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);
  lock_done(&l);
  t->join();
  EXPECT_GT(lock_stats(&l).sleeps, 0u);
  EXPECT_EQ(lock_stats(&l).spins, 0u);
}

// A Sleep-mode waiter polls lock_sleep_polls times before it sleeps, and
// after its wakeup goes straight back to the event system. Polls are
// counted apart from spin-mode spins.
TEST(ComplexLock, SleepWaiterPollsThenSleeps) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/true, "polled");
  lock_write(&l);
  auto t = kthread::spawn("poller", [&] {
    lock_read(&l);
    lock_done(&l);
  });
  // Release only once the reader sleeps, so it has used its whole budget.
  while (lock_stats(&l).sleeps == 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(10ms);
  lock_done(&l);
  t->join();
  const complex_lock_stats s = lock_stats(&l);
  EXPECT_EQ(s.polls, lock_sleep_polls);
  EXPECT_GE(s.sleeps, 1u);
  EXPECT_EQ(s.spins, 0u);
}

TEST(ComplexLock, SpinWaiterSpinsWithoutPolls) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/false, "spun");
  lock_write(&l);
  auto t = kthread::spawn("spinner", [&] {
    lock_read(&l);
    lock_done(&l);
  });
  while (lock_stats(&l).spins == 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(10ms);
  lock_done(&l);
  t->join();
  const complex_lock_stats s = lock_stats(&l);
  EXPECT_EQ(s.polls, 0u);
  EXPECT_GT(s.spins, 0u);
  EXPECT_EQ(s.sleeps, 0u);
}

TEST(ComplexLock, DoneOfUnheldLockIsFatal) {
  testing::panic_hook_scope hook;
  lock_data_t l;
  lock_init(&l, true, "unheld");
  EXPECT_THROW(lock_done(&l), panic_error);
}

TEST(ComplexLock, DowngradeByNonWriterIsFatal) {
  testing::panic_hook_scope hook;
  lock_data_t l;
  lock_init(&l, true, "nonwriter");
  lock_read(&l);
  EXPECT_THROW(lock_write_to_read(&l), panic_error);
  lock_done(&l);
}

TEST(ComplexLock, StatsTrackEverything) {
  lock_data_t l;
  lock_init(&l, true, "stats");
  lock_read(&l);
  lock_done(&l);
  lock_write(&l);
  lock_write_to_read(&l);
  lock_done(&l);
  lock_read(&l);
  EXPECT_FALSE(lock_read_to_write(&l));
  lock_done(&l);
  auto s = lock_stats(&l);
  EXPECT_EQ(s.read_acquisitions, 2u);
  EXPECT_EQ(s.write_acquisitions, 1u);
  EXPECT_EQ(s.downgrades, 1u);
  EXPECT_EQ(s.upgrades_succeeded, 1u);
  EXPECT_EQ(s.upgrades_failed, 0u);
}

// While the wait graph listens to read holds, every read takes the
// interlock so the graph hears it.
TEST(ComplexLockBias, WaitGraphSendsReadsThroughInterlock) {
  lock_data_t l;
  lock_init(&l, true, "bias-graph");
  arm_bias(&l);
  deadlock_tracing_scope graph;
  const std::uint64_t before = lock_stats(&l).read_acquisitions;
  for (int i = 0; i < 4; ++i) {
    lock_read(&l);
    lock_done(&l);
  }
  EXPECT_EQ(lock_stats(&l).read_acquisitions, before + 4);
}

// The name-wide lockstat counts every read hold, biased or interlocked;
// lock_stats counts only the interlocked ones.
TEST(ComplexLockBias, LockstatCountsEveryReadHold) {
  static constexpr const char* name = "bias-lockstat";
  auto acquisitions = [] {
    std::uint64_t n = 0;
    for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
      if (e.is_complex && std::string(e.name) == name) n += e.acquisitions;
    }
    return n;
  };
  lock_data_t l;
  lock_init(&l, true, name);
  const std::uint64_t before = acquisitions();
  constexpr int reads = 10;
  for (int i = 0; i < reads; ++i) {
    lock_read(&l);
    lock_done(&l);
  }
  const std::uint64_t interlocked = lock_stats(&l).read_acquisitions;
  EXPECT_LT(interlocked, static_cast<std::uint64_t>(reads)) << "no read was biased";
  EXPECT_EQ(acquisitions() - before, static_cast<std::uint64_t>(reads));
}

TEST(ComplexLockGuards, ReadAndWriteGuardsRelease) {
  lock_data_t l;
  lock_init(&l, true, "guards");
  {
    read_lock_guard g(l);
  }
  {
    write_lock_guard g(l);
  }
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

TEST(ComplexLockGuards, EarlyUnlock) {
  lock_data_t l;
  lock_init(&l, true, "guards2");
  write_lock_guard g(l);
  g.unlock();
  EXPECT_TRUE(lock_try_write(&l));
  lock_done(&l);
}

}  // namespace
}  // namespace mach
