// E7 — Reference counting cost and the dual-count memory object (paper
// section 8).
//
// Claims reproduced:
//   (a) "Actually acquiring a reference requires locking the object (or
//       the portion containing its reference count)" — the paper's locked
//       count (the reference row) against the atomic "portion" under
//       increasing sharing (kern/refcount.h).
//   (b) the full kobject ref_ptr clone/release path over its atomic
//       count: the row's gap to E7a's atomic row is what the object layer
//       adds at each width.
//   (c) memory objects carry TWO counts; the paging count "is a hybrid of
//       a reference and a lock because it excludes operations such as
//       object termination while paging is in progress" — we measure how
//       long termination is excluded while faults are in flight.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "kern/refcount.h"
#include "sched/kthread.h"
#include "vm/memory_object.h"

namespace {

using namespace mach;
using namespace std::chrono_literals;

constexpr int kThreadPoints[] = {1, 2, 4, 8};

template <typename Count>
double run_count_storm(int threads, int duration_ms) {
  Count count(1);
  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    count.acquire();
    count.release();
  };
  return run_workload(spec).ops_per_second();
}

double run_kobject_storm(int threads, int duration_ms) {
  struct plain : kobject {
    plain() : kobject("e7") {}
  };
  auto obj = make_object<plain>();
  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int, std::uint64_t) {
    ref_ptr<plain> local = obj;  // clone
  };                             // release
  return run_workload(spec).ops_per_second();
}

// One row: a label and the ops/s at each thread point.
template <typename Run>
std::vector<std::string> storm_row(const char* label, Run run) {
  std::vector<std::string> row{label};
  for (int th : kThreadPoints) {
    row.push_back(mach::table::num(static_cast<std::uint64_t>(run(th))));
  }
  return row;
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(200);

  mach::table t("E7a: reference clone+release throughput by count policy (sec. 8)");
  t.columns({"policy", "1 thread", "2 threads", "4 threads", "8 threads"});
  t.dirs({dir::info, dir::higher, dir::higher, dir::higher, dir::higher});
  t.row(storm_row("locked count (paper)",
                  [&](int th) { return run_count_storm<locked_refcount>(th, duration); }));
  t.row(storm_row("atomic portion",
                  [&](int th) { return run_count_storm<atomic_refcount>(th, duration); }));
  t.print();

  // (b) the same storm through the full kobject get/put path: clone a
  // ref_ptr from a shared object and drop it.
  mach::table tb("E7b: kobject ref_ptr clone+release by count policy (sec. 8)");
  tb.columns({"policy", "1 thread", "2 threads", "4 threads", "8 threads"});
  tb.dirs({dir::info, dir::higher, dir::higher, dir::higher, dir::higher});
  tb.row(storm_row("kobject atomic", [&](int th) { return run_kobject_storm(th, duration); }));
  tb.print();

  // (c) the hybrid paging count excludes termination.
  mach::table t2("E7c: memory-object dual count — termination excluded by paging (sec. 8)");
  t2.columns({"in-flight faults", "pager latency", "terminate wait (ms)"});
  t2.dirs({dir::info, dir::info, dir::stat});
  for (int faults : {0, 1, 4}) {
    const auto pager_latency = 30ms;
    object_zone<vm_page> pages("e7-pages", 16);
    auto obj = make_object<memory_object>(pages, pager_latency);
    std::vector<std::unique_ptr<kthread>> faulters;
    for (int i = 0; i < faults; ++i) {
      faulters.push_back(kthread::spawn("fault" + std::to_string(i), [&, i] {
        vm_page* p = nullptr;
        obj->page_request(static_cast<std::uint64_t>(i) * vm_page_size, &p);
      }));
    }
    if (faults > 0) {
      while (obj->paging_in_progress() == 0) std::this_thread::yield();
    }
    std::uint64_t t0 = now_nanos();
    obj->terminate();
    double wait_ms = static_cast<double>(now_nanos() - t0) / 1e6;
    for (auto& f : faulters) f->join();
    t2.row({mach::table::num(static_cast<std::uint64_t>(faults)), "30ms",
            mach::table::num(wait_ms, 1)});
  }
  t2.print();
  std::printf("\n  expected shape: terminate waits ~one pager latency whenever faults are in\n"
              "  flight (the hybrid count's exclusion), ~0 otherwise; the atomic portion\n"
              "  outpaces the locked count, and the kobject row tracks the atomic row (the\n"
              "  object layer adds little over the bare count).\n");
  return 0;
}
