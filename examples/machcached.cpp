// machcached: the traffic-serving macro-workload as a runnable demo
// (docs/MACHCACHED.md; bench E17 measures the same service).
//
// A memcached-shaped request/response service built from the kernel
// substrate alone: IPC ports carry the "connections", worker kthreads on
// virtual processors serve a complex-locked (striped) item table of
// reference-counted kernel objects whose values live in a zalloc zone.
// The demo runs a short load burst, prints the service-side numbers, and
// then shows the two teardown properties the substrate guarantees: the
// cache quiesces with exactly one reference per resident item, and
// nothing leaks.
//
// Usage: machcached [connections] [workers] [duration_ms] [read_pct]
// Knobs: MACHLOCK_CACHE_SHARDS (item-table stripes, default 4), plus the
//        usual observability matrix (MACHLOCK_TRACE / _LOCKSTAT / _SPANS ...).
#include <cstdio>
#include <cstdlib>

#include "smp/processor.h"
#include "svc/machcached.h"
#include "trace/trace_session.h"

using namespace mach;

int main(int argc, char** argv) {
  trace_session session;
  std::printf("machlock machcached example\n===========================\n\n");
  const std::uint64_t live_before = kobject::live_objects();

  mc_load_spec spec;
  spec.connections = argc > 1 ? std::atoi(argv[1]) : 8;
  spec.workers = argc > 2 ? std::atoi(argv[2]) : 4;
  spec.duration_ms = argc > 3 ? std::atoi(argv[3]) : 300;
  spec.read_pct = argc > 4 ? std::atoi(argv[4]) : 90;
  spec.keyspace = 512;
  spec.cache.shards = mc_shards_from_env(4);
  spec.cache.max_items = 2 * spec.keyspace;
  spec.bind_vcpus = true;
  machine::instance().configure(spec.workers);

  std::printf("serving: %d connections -> %d workers (vcpu-bound), %d ms, %d%% reads,\n"
              "         %d-way striped table\n\n",
              spec.connections, spec.workers, spec.duration_ms, spec.read_pct,
              spec.cache.shards);

  mc_load_result r = run_mc_load(spec);

  std::printf("results:\n");
  std::printf("  ops completed:      %llu (%.0f ops/s)\n",
              static_cast<unsigned long long>(r.ops), r.ops_per_second());
  std::printf("  round trip:         p50 %.1f us, p99 %.1f us\n",
              static_cast<double>(r.latency.quantile_nanos(0.50)) / 1e3,
              static_cast<double>(r.latency.quantile_nanos(0.99)) / 1e3);
  std::printf("  hit rate:           %.1f%%\n", 100.0 * r.hit_rate());
  std::printf("  server served:      %llu requests\n",
              static_cast<unsigned long long>(r.served));
  std::printf("  backpressure:       %llu queue-full sends, %llu zone-shortage SETs\n",
              static_cast<unsigned long long>(r.send_backpressure),
              static_cast<unsigned long long>(r.shortage_replies));
  std::printf("  cache:              %llu GETs (%llu hit), %llu SETs, %llu DELs\n",
              static_cast<unsigned long long>(r.cache_stats.gets),
              static_cast<unsigned long long>(r.cache_stats.hits),
              static_cast<unsigned long long>(r.cache_stats.sets),
              static_cast<unsigned long long>(r.cache_stats.deletes));
  // run_mc_load asserted check_quiesced() before teardown.
  std::printf("  quiesce invariant:  held (1 ref per resident item, zone == residency)\n");
  std::printf("  leaked objects:     %llu (expected 0)\n",
              static_cast<unsigned long long>(kobject::live_objects() - live_before));
  return 0;
}
