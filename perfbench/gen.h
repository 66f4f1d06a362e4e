// Seeded input generation for mcbench: the zipf sampler, the key
// permutation, the per-thread request sources and the value encoding that
// lets every GET hit be checked. Everything here derives from the --seed
// argument; the program under test only ever sees the generated requests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "base/rng.h"

namespace perfbench {

inline constexpr std::uint64_t kKeys = 65536;  // prefilled keyspace
inline constexpr std::size_t kValueWords = 8;  // words per value

enum class op_kind : std::uint8_t { get, set, del };

struct request {
  std::uint32_t key = 0;
  std::uint16_t version = 0;  // SET only: selects the value written
  op_kind kind = op_kind::get;
};

struct op_mix {
  int get_pct = 95;   // GETs; the rest are writes
  int del_every = 0;  // of the writes, one in `del_every` is a DEL (0 = none)
  bool zipf = false;  // zipf(θ=0.99) over a seeded key permutation, else uniform
};

// One stream of the seed: distinct streams per thread and per purpose.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + stream;
  return mach::splitmix64(s);
}

// Inverse-CDF zipf sampler over ranks [0, n): P(rank i) ∝ 1 / (i + 1)^θ.
class zipf_sampler {
 public:
  zipf_sampler(std::uint64_t n, double theta) : cdf_(n) {
    double sum = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::uint64_t rank(mach::xorshift64& rng) const {
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// Seeded rank → key map, so which keys (and shards) are hot changes with
// the seed.
inline std::vector<std::uint32_t> key_permutation(std::uint64_t seed) {
  std::vector<std::uint32_t> perm(kKeys);
  std::iota(perm.begin(), perm.end(), 0u);
  mach::xorshift64 rng(stream_seed(seed, 0x7065726d));
  for (std::size_t i = perm.size() - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.next_below(i + 1)]);
  }
  return perm;
}

// One driver thread's requests, drawn one at a time from its own stream of
// the seed. Nothing is buffered, so the driver's memory does not grow with
// the number of requests and does not show in rss_mb.
class request_source {
 public:
  request_source(std::uint64_t seed, std::uint64_t stream, const op_mix& mix,
                 const zipf_sampler* zipf, const std::vector<std::uint32_t>& perm)
      : rng_(stream_seed(seed, stream)), mix_(mix), zipf_(zipf), perm_(perm) {}

  request next() {
    request r;
    r.key = mix_.zipf ? perm_[zipf_->rank(rng_)] : static_cast<std::uint32_t>(rng_.next_below(kKeys));
    if (rng_.next_below(100) < static_cast<std::uint64_t>(mix_.get_pct)) {
      r.kind = op_kind::get;
    } else if (mix_.del_every > 0 &&
               rng_.next_below(static_cast<std::uint64_t>(mix_.del_every)) == 0) {
      r.kind = op_kind::del;
    } else {
      r.kind = op_kind::set;
      r.version = static_cast<std::uint16_t>(rng_.next());
    }
    return r;
  }

 private:
  mach::xorshift64 rng_;
  op_mix mix_;
  const zipf_sampler* zipf_;
  const std::vector<std::uint32_t>& perm_;
};

// Value encoding: [key, version, mix(key, version, 2), ...]. A value read
// back under `key` must carry that key and a payload consistent with the
// version it names, so a GET hit checks the value written for its key.
inline std::uint64_t value_word(std::uint64_t key, std::uint64_t version, std::size_t i) {
  std::uint64_t s = (key << 24) ^ (version << 8) ^ i;
  return mach::splitmix64(s);
}

inline void fill_value(std::uint64_t key, std::uint64_t version, std::uint64_t* words) {
  words[0] = key;
  words[1] = version;
  for (std::size_t i = 2; i < kValueWords; ++i) words[i] = value_word(key, version, i);
}

inline bool value_matches(std::uint64_t key, const std::uint64_t* words, std::size_t len) {
  if (len != kValueWords || words[0] != key) return false;
  for (std::size_t i = 2; i < kValueWords; ++i) {
    if (words[i] != value_word(key, words[1], i)) return false;
  }
  return true;
}

}  // namespace perfbench
