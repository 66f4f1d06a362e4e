// Tests for the bench harness itself (workload driver, table printer) and
// regression tests for subtle bugs found during development.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bench_json.h"
#include "harness/mini_json.h"
#include "harness/table.h"
#include "harness/workload.h"
#include "kern/zalloc.h"
#include "sched/kthread.h"
#include "smp/barrier.h"
#include "sync/complex_lock.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

TEST(Workload, RunsAllThreadsForDuration) {
  workload_spec spec;
  spec.threads = 3;
  spec.duration_ms = 50;
  spec.body = [&](int, std::uint64_t) {};
  workload_result r = run_workload(spec);
  EXPECT_EQ(r.per_thread.size(), 3u);
  EXPECT_GT(r.total_ops(), 0u);
  EXPECT_GE(r.wall_nanos, 45'000'000u);
  EXPECT_GT(r.ops_per_second(), 0.0);
}

TEST(Workload, FairnessIsOneForSymmetricWork) {
  workload_spec spec;
  spec.threads = 2;
  spec.duration_ms = 50;
  spec.body = [](int, std::uint64_t) { std::this_thread::yield(); };
  workload_result r = run_workload(spec);
  EXPECT_GT(r.fairness(), 0.0);
  EXPECT_LE(r.fairness(), 1.0);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(table::num(std::uint64_t{0}), "0");
  EXPECT_EQ(table::num(std::uint64_t{999}), "999");
  EXPECT_EQ(table::num(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(table::num(std::uint64_t{1234567}), "1,234,567");
  EXPECT_EQ(table::num(3.14159, 2), "3.14");
  EXPECT_EQ(table::ratio(2.5), "2.50x");
}

TEST(Table, BenchDurationEnvOverride) {
  EXPECT_EQ(bench_duration_ms(123), 123);  // no env var set in tests
}

// --- bench_json cell parsing (benchguard satellite: scientific notation,
// negatives, and the values that must never leak into the JSON) ---

TEST(BenchJsonParse, AcceptsHarnessFormatsAndScientificNotation) {
  double v = 0;
  EXPECT_TRUE(bench_json::parse_numeric_cell("1,234", &v));
  EXPECT_DOUBLE_EQ(v, 1234.0);
  EXPECT_TRUE(bench_json::parse_numeric_cell("3.42x", &v));
  EXPECT_DOUBLE_EQ(v, 3.42);
  EXPECT_TRUE(bench_json::parse_numeric_cell("85.0%", &v));
  EXPECT_DOUBLE_EQ(v, 85.0);
  EXPECT_TRUE(bench_json::parse_numeric_cell("1.2e+06", &v));
  EXPECT_DOUBLE_EQ(v, 1.2e6);
  EXPECT_TRUE(bench_json::parse_numeric_cell("3.5E-2", &v));
  EXPECT_DOUBLE_EQ(v, 0.035);
  EXPECT_TRUE(bench_json::parse_numeric_cell("-42", &v));
  EXPECT_DOUBLE_EQ(v, -42.0);
  EXPECT_TRUE(bench_json::parse_numeric_cell("-1,234ns", &v));
  EXPECT_DOUBLE_EQ(v, -1234.0);
  EXPECT_TRUE(bench_json::parse_numeric_cell("+0.5", &v));
  EXPECT_DOUBLE_EQ(v, 0.5);
  EXPECT_TRUE(bench_json::parse_numeric_cell("17us", &v));
  EXPECT_DOUBLE_EQ(v, 17.0);
}

TEST(BenchJsonParse, RejectsNonNumbersAndNonFinite) {
  double v = 0;
  EXPECT_FALSE(bench_json::parse_numeric_cell("", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("row-a", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("12 ops", &v));  // unknown suffix
  // nan/inf parse via strtod but would be invalid JSON tokens.
  EXPECT_FALSE(bench_json::parse_numeric_cell("nan", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("inf", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("-inf", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("1e999", &v));  // overflow (ERANGE)
  // strtod accepts hex; our formatters never emit it, so it is a label.
  EXPECT_FALSE(bench_json::parse_numeric_cell("0x1f", &v));
  EXPECT_FALSE(bench_json::parse_numeric_cell("-0X2A", &v));
}

// --- bench_json flush error paths (benchguard satellite: a bad output
// directory must not crash or silently drop tables) ---

class bench_json_fixture : public ::testing::Test {
 protected:
  void SetUp() override { bench_json::reset_for_tests(); }
  void TearDown() override {
    unsetenv("MACHLOCK_BENCH_JSON");
    bench_json::reset_for_tests();
  }
};

TEST_F(bench_json_fixture, FlushToMissingDirectoryKeepsTablesForRetry) {
  const std::string missing = ::testing::TempDir() + "/no-such-dir/nested";
  ASSERT_EQ(setenv("MACHLOCK_BENCH_JSON", missing.c_str(), 1), 0);
  bench_json::set_bench_name("retry");
  bench_json::record_table("kept table", {"metric"}, {}, {{"7"}});
  EXPECT_TRUE(bench_json::flush().empty());  // logged to stderr, not fatal

  // Point at a writable directory: the recorded table must still be there.
  ASSERT_EQ(setenv("MACHLOCK_BENCH_JSON", ::testing::TempDir().c_str(), 1), 0);
  const std::string path = bench_json::flush();
  ASSERT_FALSE(path.empty());
  mini_json::value root;
  std::string err;
  ASSERT_TRUE(mini_json::parse_file(path, &root, &err)) << err;
  const mini_json::value* tables = root.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->arr.size(), 1u);
  EXPECT_EQ(tables->arr[0].find("caption")->str, "kept table");
  std::remove(path.c_str());
}

TEST_F(bench_json_fixture, DoubleFlushAfterExternalOutputIsSafe) {
  ASSERT_EQ(setenv("MACHLOCK_BENCH_JSON", ::testing::TempDir().c_str(), 1), 0);
  bench_json::set_bench_name("extern");
  bench_json::note_external_output("/tmp/external-owner.json");
  bench_json::record_table("late table", {"metric"}, {}, {{"1"}});
  // Both flushes are no-ops (the external writer owns the file); the
  // second exercises the already-flushed path with tables pending.
  EXPECT_TRUE(bench_json::flush().empty());
  EXPECT_TRUE(bench_json::flush().empty());
  EXPECT_EQ(bench_json::output_path(), "/tmp/external-owner.json");
}

TEST_F(bench_json_fixture, MetaStampCarriesEnvironment) {
  ASSERT_EQ(setenv("MACHLOCK_BENCH_JSON", ::testing::TempDir().c_str(), 1), 0);
  ASSERT_EQ(setenv("MACHLOCK_GIT_SHA", "deadbeef1234", 1), 0);
  bench_json::set_bench_name("meta");
  table t("stamped");
  t.columns({"policy", "ops/s"});
  t.dirs({metric_dir::info, metric_dir::higher});
  t.row({"tas", "1,000"});
  t.print();
  const std::string path = bench_json::flush();
  unsetenv("MACHLOCK_GIT_SHA");
  ASSERT_FALSE(path.empty());
  mini_json::value root;
  std::string err;
  ASSERT_TRUE(mini_json::parse_file(path, &root, &err)) << err;
  EXPECT_EQ(root.find("schema")->num, 2.0);
  const mini_json::value* meta = root.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("git_sha")->str, "deadbeef1234");
  EXPECT_GE(meta->find("hw_concurrency")->num, 1.0);
  EXPECT_EQ(meta->find("reps")->num, 1.0);
  const mini_json::value* dirs = root.find("tables")->arr[0].find("directions");
  ASSERT_NE(dirs, nullptr);
  ASSERT_EQ(dirs->arr.size(), 2u);
  EXPECT_EQ(dirs->arr[0].str, "info");
  EXPECT_EQ(dirs->arr[1].str, "higher");
  std::remove(path.c_str());
}

// --- regressions ---

// Back-to-back barrier rounds: a participant that had not yet observed
// round N's release when round N+1 reset the flags used to wedge forever
// inside the ISR at interrupt level (fixed with the generation counter).
TEST(Regression, BarrierBackToBackRoundsDoNotWedge) {
  machine::instance().configure(2);
  {
    interrupt_barrier b("b2b");
    b.attach(SPLHIGH);
    std::atomic<bool> stop{false};
    auto poller = kthread::spawn("cpu1", [&] {
      cpu_binding bind(1);
      while (!stop.load()) {
        machine::interrupt_point();
        std::this_thread::yield();
      }
    });
    cpu_binding bind(0);
    for (int r = 0; r < 50; ++r) {
      ASSERT_EQ(b.run(0b10, [] {}, 5s), interrupt_barrier::status::ok) << "round " << r;
    }
    stop.store(true);
    poller->join();
    EXPECT_EQ(b.rounds_ok(), 50u);
  }
  machine::instance().configure(0);
}

// Upgrades are favored over writes: a committed writer draining readers
// must yield to a reader's upgrade request.
TEST(Regression, UpgradeBeatsCommittedWriter) {
  lock_data_t l;
  lock_init(&l, true, "upgrade-vs-writer");
  lock_read(&l);  // we hold a read lock
  std::atomic<bool> writer_done{false};
  auto writer = kthread::spawn("writer", [&] {
    lock_write(&l);  // commits want_write, drains our read hold
    writer_done.store(true);
    lock_done(&l);
  });
  std::this_thread::sleep_for(10ms);  // writer is now draining
  EXPECT_FALSE(writer_done.load());
  // Our upgrade must succeed ahead of the committed writer.
  EXPECT_FALSE(lock_read_to_write(&l));  // FALSE = success
  EXPECT_FALSE(writer_done.load()) << "writer got in before the upgrade";
  lock_done(&l);
  writer->join();
  EXPECT_TRUE(writer_done.load());
}

// The zone free-list must respect a shrunk ceiling (regression for the
// shrink-below-usage bug).
TEST(Regression, ZoneFreeListHonorsShrunkCeiling) {
  zone z("shrunk", 16, 3);
  void* a = z.alloc();
  void* b = z.alloc();
  void* c = z.alloc();
  z.free(c);     // free list now has one element
  z.set_max(2);  // in_use == 2 == max
  EXPECT_EQ(z.alloc_nowait(), nullptr) << "free-list element handed out past the ceiling";
  z.free(a);
  z.free(b);
}

}  // namespace
}  // namespace mach
