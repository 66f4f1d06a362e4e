// E9 — pmap/pv-list lock-order arbitration vs backout (paper section 5).
//
// Claim: pmap modules need the pmap→pv and pv→pmap lock orders; Mach
// arbitrates with the pmap system lock ("any procedure with a write lock
// ... can assume exclusive access to the pv lists"), and some modules use
// "a backout protocol when acquiring two locks in the reverse of the
// usual order; a single attempt is made for the second lock, with failure
// causing the first one to be released and reacquired later."
//
// Workload: enter threads (pmap→pv direction) against one page-protect
// thread (pv→pmap direction), with both resolutions. Expected shape: both
// are correct; arbitration serializes protect against ALL enters (writer
// excludes readers of the system lock), while backout only pays when it
// actually collides — visible as backout retries but higher enter
// throughput at low collision rates.
#include <atomic>

#include "base/rng.h"
#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "vm/memory_object.h"
#include "vm/pmap.h"

namespace {

using namespace mach;

struct e9_result {
  double enters_per_sec;
  double protects_per_sec;
  std::uint64_t backout_retries;
};

e9_result run_config(bool arbitrated, int enter_threads, int duration_ms) {
  pmap_system sys;
  std::vector<std::unique_ptr<pmap>> maps;
  for (int i = 0; i < enter_threads; ++i) {
    maps.push_back(std::make_unique<pmap>("e9-pmap"));
  }
  constexpr std::uint64_t frames = 32;

  const int threads = enter_threads + 1;  // last thread runs page_protect
  std::atomic<std::uint64_t> protects{0};
  std::atomic<std::uint64_t> enters{0};

  workload_spec spec;
  spec.threads = threads;
  spec.duration_ms = duration_ms;
  spec.body = [&](int t, std::uint64_t iter) {
    xorshift64 rng(static_cast<std::uint64_t>(t) * 977 + iter);
    if (t == enter_threads) {
      std::uint64_t pa = (rng.next_below(frames) + 1) << vm_page_shift;
      if (arbitrated) {
        sys.page_protect_arbitrated(pa);
      } else {
        sys.page_protect_backout(pa);
      }
      protects.fetch_add(1, std::memory_order_relaxed);
    } else {
      pmap& m = *maps[static_cast<std::size_t>(t)];
      std::uint64_t va = (rng.next_below(64) + 1) << vm_page_shift;
      std::uint64_t pa = (rng.next_below(frames) + 1) << vm_page_shift;
      sys.pmap_enter(m, va, pa);
      enters.fetch_add(1, std::memory_order_relaxed);
    }
  };
  workload_result r = run_workload(spec);
  double secs = static_cast<double>(r.wall_nanos) / 1e9;
  return {static_cast<double>(enters.load()) / secs,
          static_cast<double>(protects.load()) / secs, sys.stats().backout_retries};
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(250);
  mach::table t("E9: pv->pmap order conflict — system-lock arbitration vs backout (sec. 5)");
  t.columns({"resolution", "enter threads", "enters/s", "protects/s", "backout retries"});
  t.dirs({dir::info, dir::info, dir::higher, dir::higher, dir::stat});
  for (int et : {1, 2, 4}) {
    for (bool arb : {true, false}) {
      e9_result r = run_config(arb, et, duration);
      t.row({arb ? "pmap system lock" : "backout protocol",
             mach::table::num(static_cast<std::uint64_t>(et)),
             mach::table::num(static_cast<std::uint64_t>(r.enters_per_sec)),
             mach::table::num(static_cast<std::uint64_t>(r.protects_per_sec)),
             mach::table::num(r.backout_retries)});
    }
  }
  t.print();
  return 0;
}
