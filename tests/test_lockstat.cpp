// Tests for the lockstat registry: Appendix A's "debugging and statistics
// information" as a system-wide facility, kept per lock name.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "harness/top_tables.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

// Statistics are per (name, kind): a complex lock and its interlock share
// a name, so the lookup must also match the kind. Classes are never freed
// and collect every lock of their name, so tests measure deltas.
lock_stat_entry find_entry(const char* name, bool is_complex = false) {
  for (const auto& e : lock_registry::instance().snapshot()) {
    if (std::strcmp(e.name, name) == 0 && e.is_complex == is_complex) return e;
  }
  return {"missing", false, 0, 0};
}

TEST(Lockstat, ConstructingLocksOfOneNameAddsNoRows) {
  { simple_lock_data_t first("churn-simple"); }  // creates the class
  const std::size_t before = lock_registry::instance().snapshot().size();
  const std::uint64_t acquired = find_entry("churn-simple").acquisitions;
  {
    std::vector<std::unique_ptr<simple_lock_data_t>> locks;
    for (int i = 0; i < 10'000; ++i) {
      locks.push_back(std::make_unique<simple_lock_data_t>("churn-simple"));
      simple_lock(locks.back().get());
      simple_unlock(locks.back().get());
    }
    EXPECT_EQ(lock_registry::instance().snapshot().size(), before);
  }
  EXPECT_EQ(lock_registry::instance().snapshot().size(), before);
  // The destroyed locks' acquisitions stay counted under their name.
  EXPECT_EQ(find_entry("churn-simple").acquisitions - acquired, 10'000u);
}

TEST(Lockstat, InstancesOfOneNameSumIntoOneRow) {
  simple_lock_data_t a("summed");
  simple_lock_data_t b("summed");
  const std::uint64_t before = find_entry("summed").acquisitions;
  for (int i = 0; i < 3; ++i) {
    simple_lock(&a);
    simple_unlock(&a);
  }
  for (int i = 0; i < 4; ++i) {
    simple_lock(&b);
    simple_unlock(&b);
  }
  EXPECT_EQ(find_entry("summed").acquisitions - before, 7u);
  std::size_t rows = 0;
  for (const auto& e : lock_registry::instance().snapshot()) {
    if (std::strcmp(e.name, "summed") == 0) ++rows;
  }
  EXPECT_EQ(rows, 1u);
}

TEST(Lockstat, CountsAcquisitions) {
  simple_lock_data_t l("counted");
  const lock_stat_entry before = find_entry("counted");
  for (int i = 0; i < 10; ++i) {
    simple_lock(&l);
    simple_unlock(&l);
  }
  EXPECT_TRUE(simple_lock_try(&l));
  simple_unlock(&l);
  lock_stat_entry e = find_entry("counted");
  EXPECT_EQ(e.acquisitions - before.acquisitions, 11u);
  EXPECT_EQ(e.contended - before.contended, 0u);
  EXPECT_FALSE(e.is_complex);
}

TEST(Lockstat, CountsContention) {
  simple_lock_data_t l("contended-stat");
  const std::uint64_t before = find_entry("contended-stat").contended;
  std::atomic<bool> held{false}, release{false};
  auto holder = kthread::spawn("holder", [&] {
    simple_lock(&l);
    held.store(true);
    while (!release.load()) std::this_thread::yield();
    simple_unlock(&l);
  });
  while (!held.load()) std::this_thread::yield();
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    release.store(true);
  });
  simple_lock(&l);  // contended
  simple_unlock(&l);
  holder->join();
  releaser.join();
  EXPECT_EQ(find_entry("contended-stat").contended - before, 1u);
}

TEST(Lockstat, ComplexLocksReportCombinedStats) {
  lock_data_t l;
  lock_init(&l, true, "complex-stat");
  const std::uint64_t before = find_entry("complex-stat", /*is_complex=*/true).acquisitions;
  lock_read(&l);
  lock_done(&l);
  lock_write(&l);
  lock_done(&l);
  lock_stat_entry e = find_entry("complex-stat", /*is_complex=*/true);
  EXPECT_TRUE(e.is_complex);
  EXPECT_EQ(e.acquisitions - before, 2u);  // one read + one write
}

// Contention counts acquisitions that waited, not wait iterations: a
// reader that polls, sleeps and wakes behind one write hold adds one of
// each.
TEST(Lockstat, ComplexWaitCountsOneContendedAcquisition) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/true, "complex-contended");
  lock_write(&l);
  const lock_stat_entry before = find_entry("complex-contended", /*is_complex=*/true);
  auto reader = kthread::spawn("reader", [&] {
    lock_read(&l);
    lock_done(&l);
  });
  while (lock_stats(&l).sleeps == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  lock_done(&l);
  reader->join();
  const lock_stat_entry e = find_entry("complex-contended", /*is_complex=*/true);
  EXPECT_EQ(e.contended - before.contended, 1u);
  EXPECT_EQ(e.acquisitions - before.acquisitions, 1u);
}

TEST(Lockstat, SnapshotSortsMostContendedFirst) {
  auto snap = lock_registry::instance().snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GE(snap[i - 1].contended, snap[i].contended);
  }
}

TEST(Lockstat, SnapshotTieBreaksByNameThenKind) {
  // Identical counters: order must fall back to name, then kind, so
  // repeated snapshots (and the lockstat table) are stable run to run.
  simple_lock_data_t b("tiebreak-b");
  simple_lock_data_t a("tiebreak-a");
  lock_data_t c("tiebreak-a");
  auto position = [](const std::vector<lock_stat_entry>& snap, const char* name,
                     bool is_complex) {
    for (std::size_t i = 0; i < snap.size(); ++i) {
      if (std::strcmp(snap[i].name, name) == 0 && snap[i].is_complex == is_complex) return i;
    }
    return snap.size();
  };
  auto snap = lock_registry::instance().snapshot();
  ASSERT_LT(position(snap, "tiebreak-a", false), snap.size());
  // Name breaks the tie, then kind (simple first).
  EXPECT_LT(position(snap, "tiebreak-a", false), position(snap, "tiebreak-b", false));
  EXPECT_LT(position(snap, "tiebreak-a", false), position(snap, "tiebreak-a", true));

  // The full order is reproducible across snapshots.
  auto snap2 = lock_registry::instance().snapshot();
  ASSERT_EQ(snap.size(), snap2.size());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_STREQ(snap[i].name, snap2[i].name) << "row " << i;
    EXPECT_EQ(snap[i].is_complex, snap2[i].is_complex) << "row " << i;
  }
}

TEST(Lockstat, PrintTopDoesNotExplode) {
  // Smoke: the report renders with whatever is live (captured by ctest).
  print_lockstat_top(lock_registry::instance().snapshot(), 5);
}

}  // namespace
}  // namespace mach
