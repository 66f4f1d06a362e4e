// E13 — Primitive operation costs (Appendices A and B).
//
// google-benchmark microbenchmarks of every locking primitive the paper's
// appendices document, uncontended: the baseline costs every design
// discussion in the paper builds on (e.g. why the simple lock is "a C
// integer" and why complex locks tolerate an interlock acquisition per
// operation).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "harness/bench_json.h"
#include "harness/env.h"
#include "harness/trace_session.h"
#include "ipc/stubs.h"
#include "kern/object.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/simple_lock.h"

namespace {

using namespace mach;

void BM_SimpleLockUnlock(benchmark::State& state) {
  simple_lock_data_t l;
  simple_lock_init(&l, "bm", true, static_cast<spin_policy>(state.range(0)));
  for (auto _ : state) {
    simple_lock(&l);
    simple_unlock(&l);
  }
}
BENCHMARK(BM_SimpleLockUnlock)
    ->Arg(static_cast<int>(spin_policy::tas))
    ->Arg(static_cast<int>(spin_policy::ttas))
    ->Arg(static_cast<int>(spin_policy::tas_then_ttas))
    ->Arg(static_cast<int>(spin_policy::ttas_backoff));

void BM_SimpleLockTry(benchmark::State& state) {
  simple_lock_data_t l;
  simple_lock_init(&l, "bm-try");
  for (auto _ : state) {
    benchmark::DoNotOptimize(simple_lock_try(&l));
    simple_unlock(&l);
  }
}
BENCHMARK(BM_SimpleLockTry);

void BM_ComplexRead(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, state.range(0) != 0, "bm-read");
  for (auto _ : state) {
    lock_read(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexRead)->Arg(0)->Arg(1);  // spin / sleep option

void BM_ComplexWrite(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, state.range(0) != 0, "bm-write");
  for (auto _ : state) {
    lock_write(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexWrite)->Arg(0)->Arg(1);

void BM_ComplexUpgradeDowngrade(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, true, "bm-upg");
  for (auto _ : state) {
    lock_read(&l);
    benchmark::DoNotOptimize(lock_read_to_write(&l));
    lock_write_to_read(&l);
    lock_done(&l);
  }
}
BENCHMARK(BM_ComplexUpgradeDowngrade);

void BM_RecursiveWrite(benchmark::State& state) {
  lock_data_t l;
  lock_init(&l, true, "bm-rec");
  lock_write(&l);
  lock_set_recursive(&l);
  for (auto _ : state) {
    lock_write(&l);  // recursive acquisition
    lock_done(&l);
  }
  lock_clear_recursive(&l);
  lock_done(&l);
}
BENCHMARK(BM_RecursiveWrite);

void BM_RefCloneRelease(benchmark::State& state) {
  struct plain : kobject {
    plain() : kobject("bm") {}
  };
  auto obj = make_object<plain>();
  for (auto _ : state) {
    obj->ref_clone();
    obj->ref_release();
  }
}
BENCHMARK(BM_RefCloneRelease);

void BM_EventShortCircuit(benchmark::State& state) {
  int event = 0;
  for (auto _ : state) {
    assert_wait(&event);
    thread_wakeup(&event);
    benchmark::DoNotOptimize(thread_block());
  }
}
BENCHMARK(BM_EventShortCircuit);

void BM_PortSendReceive(benchmark::State& state) {
  auto p = make_object<port>("bm-port");
  for (auto _ : state) {
    p->send(message(1));
    benchmark::DoNotOptimize(p->try_receive());
  }
}
BENCHMARK(BM_PortSendReceive);

void BM_MsgRpcCounterAdd(benchmark::State& state) {
  ipc_space space;
  auto obj = make_object<counter_object>();
  auto p = make_object<port>("bm-rpc");
  p->set_translation(obj);
  port_name_t name = space.insert(p);
  message reply;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        msg_rpc(space, name, message(OP_COUNTER_ADD, {1}), reply, standard_router()));
  }
}
BENCHMARK(BM_MsgRpcCounterAdd);

// Cross-thread handoff: this thread sends on `ping` and blocks receiving on
// `pong`; an echo kthread does the reverse. One iteration is a round trip
// of two sends and two blocking receives, so the row prices the port's
// wakeup path (waiter count, event bucket, sleep and wake) that a served
// request crosses twice. Real time: the echo thread's half is not this
// thread's CPU time. Registered after the single-threaded rows: the echo
// thread it starts leaves the process in a different state for the rows
// that run after it, so they would no longer compare with their parent's.
void BM_PortHandoff(benchmark::State& state) {
  auto ping = make_object<port>("bm-ping");
  auto pong = make_object<port>("bm-pong");
  auto echo = kthread::spawn("bm-echo", [&] {
    while (std::optional<message> m = ping->receive()) {
      if (pong->send(std::move(*m)) != KERN_SUCCESS) break;
    }
  });
  for (auto _ : state) {
    ping->send(message(1));
    benchmark::DoNotOptimize(pong->receive());
  }
  ping->destroy_port();
  echo->join();
}
BENCHMARK(BM_PortHandoff)->UseRealTime();

// Read round trips on one Sleep lock from several threads at once: the
// layer row behind a GET on a shared shard. With reader bias a read writes
// no line the other readers share, so the 3-thread cost stays near the
// 1-thread cost (DESIGN.md decision 12). Registered last: run before the
// single-threaded rows, its threads slowed the rows after it
// (BM_EventShortCircuit 95-127 -> 150-200 ns), so they would no longer
// compare with their parent's.
lock_data_t g_shared_read_lock{"bm-read-shared"};

void BM_ComplexReadShared(benchmark::State& state) {
  for (auto _ : state) {
    lock_read(&g_shared_read_lock);
    lock_done(&g_shared_read_lock);
  }
}
BENCHMARK(BM_ComplexReadShared)->Threads(1)->Threads(3);

}  // namespace

// Expanded BENCHMARK_MAIN() so a trace_session wraps the benchmark run:
// MACHLOCK_TRACE / MACHLOCK_LOCKSTAT / MACHLOCK_METRICS work here like in
// every other bench. MACHLOCK_BENCH_JSON gets google-benchmark's own JSON
// reporter instead of the harness-table collector (this bench prints no
// harness tables); note_external_output keeps trace_session's flush from
// overwriting it with an empty table list.
int main(int argc, char** argv) {
  mach::trace_session trace;
  // Under MACHLOCK_BENCH_JSON, google-benchmark writes its own JSON to
  // the BENCH_<name>.json path via the flags it expects; marking the file
  // external keeps the table-based flush from clobbering it. bench_all
  // later normalizes that file into the common table schema.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag;
  std::string fmt_flag;
  std::string min_time_flag;
  // MACHLOCK_BENCH_MS shortens every other bench; map it onto
  // google-benchmark's per-benchmark min time so CI smoke and bench_all
  // repetitions control this binary's runtime the same way. An explicit
  // --benchmark_min_time on the command line wins.
  bool explicit_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) explicit_min_time = true;
  }
  if (const int v = mach::env_number("MACHLOCK_BENCH_MS", 0, 1); v > 0 && !explicit_min_time) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "--benchmark_min_time=%.3f", v / 1000.0);
    min_time_flag = buf;
    args.push_back(min_time_flag.data());
  }
  if (mach::bench_json::active()) {
    const std::string path = mach::bench_json::output_path();
    mach::bench_json::note_external_output(path);
    out_flag = "--benchmark_out=";
    out_flag += path;
    fmt_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
