// Log-linear latency histogram with 128 sub-buckets per power of two, so
// every reported quantile is within 0.8% of the recorded value. Fixed
// size: recording never allocates, so memory does not grow with
// throughput.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace perfbench {

class lat_hist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kBuckets = (64 - kSubBits + 1) * static_cast<int>(kSub);

  void record(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++count_;
    sum_ += v;
  }

  void merge(const lat_hist& o) noexcept {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const noexcept { return count_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  // Midpoint of the bucket holding the q-quantile sample; 0 when empty.
  double quantile(double q) const noexcept {
    if (count_ == 0) return 0.0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen > target) {
        const std::uint64_t lo = lower(i);
        const std::uint64_t width = lower(i + 1) - lo;
        return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
      }
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  // Values below 2*kSub map exactly; above, each octave [2^e, 2^(e+1))
  // splits into kSub equal buckets.
  static int index(std::uint64_t v) noexcept {
    if (v < 2 * kSub) return static_cast<int>(v);
    const int shift = std::bit_width(v) - kSubBits - 1;
    return (shift + 1) * static_cast<int>(kSub) + static_cast<int>((v >> shift) - kSub);
  }
  static std::uint64_t lower(int i) noexcept {
    if (i < static_cast<int>(2 * kSub)) return static_cast<std::uint64_t>(i);
    const int shift = i / static_cast<int>(kSub) - 1;
    return (kSub + static_cast<std::uint64_t>(i % static_cast<int>(kSub))) << shift;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace perfbench
