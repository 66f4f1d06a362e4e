// E11 — Kernel operations, references, and shutdown (paper section 10).
//
// Claim: the receive → translate → operate → release sequence, combined
// with the shutdown protocol (deactivate, then disable port→object
// translation, then tear down, then drop the creation reference), lets
// operations race shutdown with no use-after-free: late callers fail
// cleanly at step 2 with KERN_TERMINATED while outstanding references keep
// the data structures alive.
//
// Workload: client threads hammer counter objects through msg_rpc while a
// shutdown thread destroys the objects one by one. We report completed
// ops, clean KERN_TERMINATED failures, the reference-discipline counters
// (Mach 2.5 vs 3.0), and assert zero leaked objects.
#include <atomic>
#include <cstdio>
#include <thread>

#include "harness/table.h"
#include "harness/trace_session.h"
#include "harness/workload.h"
#include "ipc/stubs.h"
#include "trace/kspan.h"

namespace {

using namespace mach;
using namespace std::chrono_literals;

struct e11_result {
  std::uint64_t ops_ok;
  std::uint64_t terminated;
  std::uint64_t invalid_name;
  std::uint64_t refs_interface;
  std::uint64_t refs_operation;
  std::uint64_t leaked_objects;
};

e11_result run_config(ref_discipline disc, int clients, int objects, int duration_ms) {
  reset_rpc_stats();
  const std::uint64_t live_before = kobject::live_objects();
  e11_result out{};
  {
    ipc_space space;
    std::vector<ref_ptr<kobject>> creation_refs;
    std::vector<ref_ptr<port>> ports;
    std::vector<port_name_t> names;
    for (int i = 0; i < objects; ++i) {
      auto obj = make_object<counter_object>();
      auto p = make_object<port>("e11-port");
      p->set_translation(obj);
      names.push_back(space.insert(p));
      ports.push_back(std::move(p));
      creation_refs.push_back(std::move(obj));
    }

    std::atomic<bool> clients_done{false};
    workload_spec spec;
    spec.threads = clients;
    spec.duration_ms = duration_ms;
    spec.body = [&](int t, std::uint64_t iter) {
      port_name_t name = names[(static_cast<std::size_t>(t) + iter) % names.size()];
      message reply;
      // One request span per RPC (inert unless MACHLOCK_SPANS=1), so a
      // traced run can be decomposed by tools/span_report.
      kspan::request span("rpc");
      msg_rpc(space, name, message(OP_COUNTER_ADD, {1}), reply, standard_router(), disc);
    };
    // Shutdown thread: spread the shutdowns across the run.
    auto destroyer = kthread::spawn("shutdown", [&] {
      for (int i = 0; i < objects; ++i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(duration_ms / (objects + 1)));
        shutdown_protocol(*ports[static_cast<std::size_t>(i)],
                          std::move(creation_refs[static_cast<std::size_t>(i)]));
        if (clients_done.load()) break;
      }
    });
    run_workload(spec);
    clients_done.store(true);
    destroyer->join();

    rpc_counters c = rpc_stats();
    out.ops_ok = c.ok;
    out.terminated = c.terminated;
    out.invalid_name = c.invalid_name;
    out.refs_interface = c.refs_released_by_interface;
    out.refs_operation = c.refs_consumed_by_operation;
  }
  out.leaked_objects = kobject::live_objects() - live_before;
  return out;
}

}  // namespace

int main() {
  using dir = mach::metric_dir;
  mach::trace_session trace;  // MACHLOCK_TRACE / MACHLOCK_LOCKSTAT exports on exit
  const int duration = mach::bench_duration_ms(400);
  mach::table t("E11: RPC storm racing object shutdown (sec. 10)");
  t.columns({"discipline", "clients", "ops ok", "clean TERMINATED", "refs by interface",
             "refs by operation", "leaked objects"});
  t.dirs({dir::info, dir::info, dir::stat, dir::stat, dir::stat, dir::stat, dir::stat});
  for (int clients : {1, 2, 4}) {
    for (ref_discipline disc :
         {ref_discipline::mach25_interface_releases, ref_discipline::mach30_operation_consumes}) {
      e11_result r = run_config(disc, clients, /*objects=*/8, duration);
      t.row({disc == ref_discipline::mach25_interface_releases ? "Mach 2.5" : "Mach 3.0",
             mach::table::num(static_cast<std::uint64_t>(clients)), mach::table::num(r.ops_ok),
             mach::table::num(r.terminated), mach::table::num(r.refs_interface),
             mach::table::num(r.refs_operation), mach::table::num(r.leaked_objects)});
    }
  }
  t.print();
  std::printf("\n  expected shape: ops succeed until each object's shutdown, then fail cleanly\n"
              "  with KERN_TERMINATED (translation disabled at step 2); zero leaks either\n"
              "  discipline; 3.0 shifts successful releases from interface to operation.\n");
  return 0;
}
