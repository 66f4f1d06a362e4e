#include "base/stats.h"

#include <algorithm>
#include <bit>
#include <chrono>

namespace mach {

void latency_histogram::record(std::uint64_t nanos) noexcept {
  int bucket = nanos == 0 ? 0 : std::bit_width(nanos);
  if (bucket >= num_buckets) bucket = num_buckets - 1;
  ++buckets_[bucket];
  ++count_;
  total_ += nanos;
  max_ = std::max(max_, nanos);
}

void latency_histogram::merge(const latency_histogram& other) noexcept {
  for (int i = 0; i < num_buckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  total_ += other.total_;
  max_ = std::max(max_, other.max_);
}

void latency_histogram::reset() noexcept { *this = latency_histogram{}; }

double latency_histogram::mean_nanos() const noexcept {
  return count_ == 0 ? 0.0 : static_cast<double>(total_) / static_cast<double>(count_);
}

std::uint64_t latency_histogram::quantile_nanos(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < num_buckets; ++i) {
    seen += buckets_[i];
    if (seen > target) {
      // Upper bound of bucket i: values v with bit_width(v) == i.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return max_;
}

std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace mach
