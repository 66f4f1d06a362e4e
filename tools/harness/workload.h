// Workload driver: run N kernel threads against a per-thread work function
// for a fixed duration, collecting per-thread operation counts. Shared by
// the experiment benches.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace mach {

struct worker_result {
  std::uint64_t ops = 0;
};

struct workload_result {
  std::vector<worker_result> per_thread;
  std::uint64_t wall_nanos = 0;

  std::uint64_t total_ops() const;
  double ops_per_second() const;
  // Fairness: min/max per-thread ops ratio in [0,1]; 1 = perfectly fair.
  double fairness() const;
};

// Each worker repeatedly calls `body(thread_index, iteration)` until the
// stop flag flips; every call counts as one op.
struct workload_spec {
  int threads = 1;
  int duration_ms = 300;
  std::function<void(int, std::uint64_t)> body;
};

workload_result run_workload(const workload_spec& spec);

}  // namespace mach
