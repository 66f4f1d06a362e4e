#include "harness/workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "base/stats.h"
#include "sched/kthread.h"

namespace mach {

std::uint64_t workload_result::total_ops() const {
  std::uint64_t sum = 0;
  for (const auto& w : per_thread) sum += w.ops;
  return sum;
}

double workload_result::ops_per_second() const {
  if (wall_nanos == 0) return 0.0;
  return static_cast<double>(total_ops()) * 1e9 / static_cast<double>(wall_nanos);
}

double workload_result::fairness() const {
  if (per_thread.empty()) return 1.0;
  std::uint64_t lo = per_thread[0].ops, hi = per_thread[0].ops;
  for (const auto& w : per_thread) {
    lo = std::min(lo, w.ops);
    hi = std::max(hi, w.ops);
  }
  return hi == 0 ? 1.0 : static_cast<double>(lo) / static_cast<double>(hi);
}

workload_result run_workload(const workload_spec& spec) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  workload_result result;
  result.per_thread.resize(static_cast<std::size_t>(spec.threads));

  std::vector<std::unique_ptr<kthread>> workers;
  workers.reserve(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    workers.push_back(kthread::spawn("worker" + std::to_string(t), [&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      worker_result& mine = result.per_thread[static_cast<std::size_t>(t)];
      std::uint64_t iter = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        spec.body(t, iter);
        ++mine.ops;
        ++iter;
      }
    }));
  }
  while (ready.load() < spec.threads) std::this_thread::yield();
  std::uint64_t t0 = now_nanos();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(spec.duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w->join();
  result.wall_nanos = now_nanos() - t0;
  return result;
}

}  // namespace mach
