// E2 — Lock granularity (paper section 2).
//
// Claim: "If large amounts of code are locked by each lock, the resulting
// coarse locking structure can exhibit performance bottlenecks. The
// alternative is to associate locks with data structures; this allows code
// to execute in parallel with itself."
//
// Two sub-experiments:
//
//   E2a (spin locks, CPU-bound critical sections): the classic form. Its
//   throughput shape requires real hardware parallelism — on a single-core
//   host the scheduler serializes every variant equally — so the table
//   reports contention metrics alongside ops/s and EXPERIMENTS.md records
//   the host dependence.
//
//   E2b (sleep locks, *blocking* critical sections): the same granularity
//   question where the parallel resource is overlap of blocking time (disk
//   waits, pager RPCs — exactly the operations Mach's Sleep locks exist
//   for). A global lock serializes all blocking; per-object locks let
//   independent operations overlap. This shape is host-independent and is
//   the headline result.
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "base/compiler.h"
#include "base/rng.h"
#include "base/stats.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "sync/complex_lock.h"
#include "sync/simple_lock.h"

namespace {

using namespace mach;

constexpr int num_objects = 16;

// --- E2a: spin locks, CPU-bound critical sections ---

struct e2a_result {
  double ops_per_sec;
  double contended_pct;
  std::uint64_t p99_wait_ns;
};

e2a_result run_spin(int granularity, int threads, int duration_ms) {
  struct alignas(cacheline_size) slot {
    long value = 0;
  };
  std::vector<slot> counters(num_objects);
  std::vector<std::unique_ptr<simple_lock_data_t>> locks;
  for (int i = 0; i < granularity; ++i) {
    locks.push_back(std::make_unique<simple_lock_data_t>("e2-lock"));
  }
  std::vector<spin_stats> stats(static_cast<std::size_t>(threads));
  std::vector<latency_histogram> waits(static_cast<std::size_t>(threads));

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t iter) {
    xorshift64 rng(static_cast<std::uint64_t>(t) * 7919 + iter);
    int object = static_cast<int>(rng.next_below(num_objects));
    simple_lock_data_t* l = locks[static_cast<std::size_t>(object) % locks.size()].get();
    std::uint64_t t0 = now_nanos();
    simple_lock(l, &stats[static_cast<std::size_t>(t)]);
    waits[static_cast<std::size_t>(t)].record(now_nanos() - t0);
    for (int i = 0; i < 64; ++i) counters[static_cast<std::size_t>(object)].value += i;
    simple_unlock(l);
  };
  workload_result r = run_workload(spec);

  spin_stats merged;
  latency_histogram wait_all;
  for (const auto& s : stats) merged.merge(s);
  for (const auto& w : waits) wait_all.merge(w);
  double acq = merged.acquisitions != 0 ? static_cast<double>(merged.acquisitions) : 1.0;
  return {r.ops_per_second(), 100.0 * static_cast<double>(merged.contended) / acq,
          wait_all.quantile_nanos(0.99)};
}

// --- E2b: sleep locks, blocking critical sections ---

double run_blocking(int granularity, int threads, int block_us, int duration_ms) {
  std::vector<std::unique_ptr<lock_data_t>> locks;
  for (int i = 0; i < granularity; ++i) {
    auto l = std::make_unique<lock_data_t>();
    lock_init(l.get(), /*can_sleep=*/true, "e2b-lock");
    locks.push_back(std::move(l));
  }
  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t iter) {
    xorshift64 rng(static_cast<std::uint64_t>(t) * 104729 + iter);
    int object = static_cast<int>(rng.next_below(num_objects));
    lock_data_t* l = locks[static_cast<std::size_t>(object) % locks.size()].get();
    lock_write(l);
    // The blocking operation the Sleep option exists for (pager RPC,
    // allocation): holder sleeps, lock held.
    std::this_thread::sleep_for(std::chrono::microseconds(block_us));
    lock_done(l);
  };
  return run_workload(spec).ops_per_second();
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(250);
  struct variant {
    const char* name;
    int granularity;
  };
  const variant variants[] = {{"global (1 lock)", 1},
                              {"subsystem (4 locks)", 4},
                              {"per-object (16 locks)", num_objects}};

  mach::table ta("E2a: spin-lock granularity, CPU-bound sections (sec. 2)");
  ta.columns({"granularity", "threads", "ops/s", "contended%", "p99 wait (us)"});
  ta.dirs({dir::info, dir::info, dir::higher, dir::stat, dir::lower});
  for (const variant& v : variants) {
    for (int threads : {2, 8}) {
      e2a_result r = run_spin(v.granularity, threads, duration);
      ta.row({v.name, mach::table::num(static_cast<std::uint64_t>(threads)),
              mach::table::num(static_cast<std::uint64_t>(r.ops_per_sec)),
              mach::table::num(r.contended_pct, 2), mach::table::num(r.p99_wait_ns / 1000)});
    }
  }
  ta.print();

  mach::table tb("E2b: sleep-lock granularity, 500us blocking sections (sec. 2) — "
                 "parallelism = overlapped blocking");
  tb.columns({"granularity", "2 threads", "4 threads", "8 threads", "8T vs global"});
  tb.dirs({dir::info, dir::higher, dir::higher, dir::higher, dir::stat});
  std::vector<double> at8;
  std::vector<std::vector<std::string>> rows;
  for (const variant& v : variants) {
    std::vector<std::string> row{v.name};
    double last = 0;
    for (int threads : {2, 4, 8}) {
      last = run_blocking(v.granularity, threads, 500, duration);
      row.push_back(mach::table::num(static_cast<std::uint64_t>(last)));
    }
    at8.push_back(last);
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].push_back(mach::table::ratio(at8[i] / at8[0]));
    tb.row(rows[i]);
  }
  tb.print();
  std::printf("\n  expected shape: in E2b, per-object locking approaches threads/1 speedup\n"
              "  over the global lock (independent blocking overlaps); E2a's throughput\n"
              "  shape additionally needs a multi-core host.\n");
  return 0;
}
