// Counters and latency statistics used by lock instrumentation and the
// benchmark harness.
#pragma once

#include <atomic>
#include <cstdint>

#include "base/compiler.h"

namespace mach {

// Cacheline-padded relaxed counter: per-thread/per-object event tallies
// where cross-thread precision at read time is not required.
class alignas(cacheline_size) event_counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Log2-bucketed histogram of nanosecond latencies. Single-writer or
// externally synchronized; merge() combines per-thread instances.
class latency_histogram {
 public:
  static constexpr int num_buckets = 48;

  void record(std::uint64_t nanos) noexcept;
  void merge(const latency_histogram& other) noexcept;
  // Drop all samples (between bench rounds / sampler windows).
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  // Raw bucket occupancy; bucket i holds values whose bit_width is i
  // (i.e. v in [2^(i-1), 2^i - 1]). Used by the Prometheus exporter.
  std::uint64_t bucket(int i) const noexcept {
    return i < 0 || i >= num_buckets ? 0 : buckets_[i];
  }
  std::uint64_t total_nanos() const noexcept { return total_; }
  double mean_nanos() const noexcept;
  // Approximate quantile (bucket upper bound), q in [0,1].
  std::uint64_t quantile_nanos(double q) const noexcept;
  std::uint64_t max_nanos() const noexcept { return max_; }

 private:
  std::uint64_t buckets_[num_buckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t max_ = 0;
};

// Monotonic clock reading in nanoseconds.
std::uint64_t now_nanos() noexcept;

}  // namespace mach
