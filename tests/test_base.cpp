// Unit tests for src/base: panic hooks, statistics, RNG, backoff, scope_exit.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/backoff.h"
#include "base/panic.h"
#include "base/rng.h"
#include "base/scope.h"
#include "base/stats.h"

namespace mach {
namespace {

void throwing_panic_hook(const std::string& message) { throw panic_error{message}; }

class panic_hook_scope {
 public:
  panic_hook_scope() : previous_(set_panic_hook(&throwing_panic_hook)) {}
  ~panic_hook_scope() { set_panic_hook(previous_); }

 private:
  panic_hook_t previous_;
};

TEST(Panic, HookReceivesMessage) {
  panic_hook_scope scope;
  try {
    panic("lock held across block");
    FAIL() << "panic returned";
  } catch (const panic_error& e) {
    EXPECT_EQ(e.message, "lock held across block");
  }
}

TEST(Panic, AssertMacroFiresOnFalse) {
  panic_hook_scope scope;
  EXPECT_THROW(MACH_ASSERT(false, "invariant"), panic_error);
  EXPECT_NO_THROW(MACH_ASSERT(true, "invariant"));
}

TEST(EventCounter, AccumulatesAndResets) {
  event_counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(LatencyHistogram, MeanAndMax) {
  latency_histogram h;
  h.record(100);
  h.record(200);
  h.record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.mean_nanos(), 200.0);
  EXPECT_EQ(h.max_nanos(), 300u);
}

TEST(LatencyHistogram, QuantileIsMonotonic) {
  latency_histogram h;
  for (std::uint64_t v = 1; v <= 4096; v *= 2) h.record(v);
  std::uint64_t prev = 0;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::uint64_t cur = h.quantile_nanos(q);
    EXPECT_GE(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_LE(h.quantile_nanos(0.5), h.max_nanos() * 2);
}

TEST(LatencyHistogram, MergeCombinesCounts) {
  latency_histogram a, b;
  a.record(10);
  b.record(20);
  b.record(30);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.total_nanos(), 60u);
  EXPECT_EQ(a.max_nanos(), 30u);
}

TEST(LatencyHistogram, EmptyQuantilesAreZero) {
  latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile_nanos(0.0), 0u);
  EXPECT_EQ(h.quantile_nanos(0.5), 0u);
  EXPECT_EQ(h.quantile_nanos(1.0), 0u);
  EXPECT_DOUBLE_EQ(h.mean_nanos(), 0.0);
  EXPECT_EQ(h.max_nanos(), 0u);
}

TEST(LatencyHistogram, SingleSampleAllQuantilesSameBucket) {
  latency_histogram h;
  h.record(100);  // bit_width(100) == 7 → bucket upper bound 127
  EXPECT_EQ(h.quantile_nanos(0.0), 127u);
  EXPECT_EQ(h.quantile_nanos(0.5), 127u);
  EXPECT_EQ(h.quantile_nanos(1.0), 127u);
}

TEST(LatencyHistogram, QuantileExtremesOutOfRangeClamp) {
  latency_histogram h;
  h.record(1);
  h.record(1 << 20);
  // q outside [0,1] clamps rather than misindexing.
  EXPECT_EQ(h.quantile_nanos(-0.5), h.quantile_nanos(0.0));
  EXPECT_EQ(h.quantile_nanos(1.5), h.quantile_nanos(1.0));
}

TEST(LatencyHistogram, MergeOfDisjointRangesSpansBoth) {
  latency_histogram small, large;
  for (int i = 0; i < 10; ++i) small.record(3);         // bucket 2, upper bound 3
  for (int i = 0; i < 10; ++i) large.record(1 << 20);   // bucket 21
  small.merge(large);
  EXPECT_EQ(small.count(), 20u);
  EXPECT_EQ(small.quantile_nanos(0.0), 3u);
  EXPECT_EQ(small.quantile_nanos(1.0), (std::uint64_t{1} << 21) - 1);
  EXPECT_EQ(small.max_nanos(), std::uint64_t{1} << 20);
}

TEST(LatencyHistogram, HugeValuesLandInOverflowBucket) {
  latency_histogram h;
  const std::uint64_t huge = ~std::uint64_t{0};  // bit_width 64 ≫ num_buckets
  h.record(huge);
  h.record(huge - 1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_nanos(), huge);
  // Both clamp into the last bucket; the quantile reports its upper bound
  // rather than overflowing the shift.
  EXPECT_EQ(h.quantile_nanos(1.0),
            (std::uint64_t{1} << (latency_histogram::num_buckets - 1)) - 1);
  EXPECT_EQ(h.quantile_nanos(0.0), h.quantile_nanos(1.0));
}

TEST(LatencyHistogram, ResetDropsAllState) {
  latency_histogram h;
  h.record(100);
  h.record(1 << 20);
  ASSERT_EQ(h.count(), 2u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total_nanos(), 0u);
  EXPECT_EQ(h.max_nanos(), 0u);
  EXPECT_EQ(h.quantile_nanos(1.0), 0u);
  for (int i = 0; i < latency_histogram::num_buckets; ++i) EXPECT_EQ(h.bucket(i), 0u);
  // Usable again after reset.
  h.record(5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_nanos(), 5u);
}

TEST(LatencyHistogram, BucketAccessorMatchesRecordedWidths) {
  latency_histogram h;
  h.record(1);    // bit_width 1 → bucket 1
  h.record(100);  // bit_width 7 → bucket 7
  h.record(100);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(7), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  // Out-of-range indices are safe and empty.
  EXPECT_EQ(h.bucket(-1), 0u);
  EXPECT_EQ(h.bucket(latency_histogram::num_buckets), 0u);
  // Bucket occupancy sums to count.
  std::uint64_t sum = 0;
  for (int i = 0; i < latency_histogram::num_buckets; ++i) sum += h.bucket(i);
  EXPECT_EQ(sum, h.count());
}

TEST(LatencyHistogram, MergePropagatesMaxAndTotalBothDirections) {
  latency_histogram a, b;
  a.record(1000);
  b.record(10);
  // Merging a smaller-max histogram must not lower max; merging a
  // larger-max one must raise it.
  a.merge(b);
  EXPECT_EQ(a.max_nanos(), 1000u);
  EXPECT_EQ(a.total_nanos(), 1010u);
  latency_histogram c;
  c.record(5);
  c.merge(a);
  EXPECT_EQ(c.max_nanos(), 1000u);
  EXPECT_EQ(c.total_nanos(), 1015u);
  EXPECT_EQ(c.count(), 3u);
}

TEST(Rng, DeterministicForSeed) {
  xorshift64 a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BoundedValuesInRange) {
  xorshift64 r(123);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, ProducesSpread) {
  xorshift64 r(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(r.next_below(1024));
  EXPECT_GT(seen.size(), 32u);  // far from degenerate
}

TEST(Rng, ChancePerMilleExtremes) {
  xorshift64 r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance_per_mille(0));
    EXPECT_TRUE(r.chance_per_mille(1000));
  }
}

TEST(Backoff, CountsPauses) {
  backoff bo;
  for (int i = 0; i < 5; ++i) bo.pause();
  EXPECT_EQ(bo.pauses(), 5u);
}

TEST(ScopeExit, RunsOnExit) {
  int fired = 0;
  {
    scope_exit guard([&] { ++fired; });
  }
  EXPECT_EQ(fired, 1);
}

TEST(ScopeExit, ReleaseDisarms) {
  int fired = 0;
  {
    scope_exit guard([&] { ++fired; });
    guard.release();
  }
  EXPECT_EQ(fired, 0);
}

TEST(Clock, NowNanosAdvances) {
  std::uint64_t a = now_nanos();
  std::uint64_t b = now_nanos();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace mach
