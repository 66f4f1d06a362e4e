// stress_machcached: concurrency battery for the machcached item table
// and the IPC-fronted service (svc/machcached.h) — concurrent GET/SET/
// DELETE storms across a shard-count sweep, plus a service-teardown-vs-
// traffic race arm. Always built, runs under ctest (sized to finish in
// seconds), and re-run under -fsanitize=thread by the TSan CI job, where
// the read-side lock holds, the immutable-value discipline, and the
// displaced-reference release paths get their real audit. Scale knobs:
//
//   MACHLOCK_STRESS_THREADS  worker threads per arm      (default 4)
//   MACHLOCK_STRESS_ITERS    ops per worker per arm      (default 20000)
//   MACHLOCK_STRESS_ROUNDS   teardown-race rounds        (default 20)
//
// Expected output: "ALL OK" and exit 0 (and zero TSan warnings).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/rng.h"
#include "svc/machcached.h"
#include "tests/mc_load.h"
#include "trace/trace_session.h"

using namespace mach;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

int g_failures = 0;

#define CHECK(cond, what)                                           \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, (what)); \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

// Arm 1 — direct-API item-table storm: every worker mixes GET (and reads
// the immutable value through its reference), SET (overwrites included)
// and DELETE over a small hot keyspace, per shard count. At quiesce: one
// reference per resident item, zone occupancy == residency, residency <=
// capacity, and every surviving value is self-consistent (value[0] ==
// key ^ tag — a torn or stale block would break it).
void table_storm(int shards, int threads, int iters) {
  mc_cache_config cfg;
  cfg.shards = shards;
  cfg.max_items = 64;
  cfg.value_words = 4;
  mc_cache cache(cfg);
  constexpr std::uint64_t keyspace = 48;  // < capacity: overwrite-heavy
  constexpr std::uint64_t tag = 0x5ca1ab1eull;
  std::vector<std::unique_ptr<kthread>> ts;
  for (int t = 0; t < threads; ++t) {
    ts.push_back(kthread::spawn("mc-storm" + std::to_string(t), [&, t] {
      xorshift64 rng(static_cast<std::uint64_t>(t) * 2654435761u + 17);
      std::uint64_t value[4] = {0, 0, 0, 0};
      for (int i = 0; i < iters; ++i) {
        const std::uint64_t key = rng.next_below(keyspace);
        switch (rng.next_below(10)) {
          case 0:
            (void)cache.del(key);
            break;
          case 1:
          case 2:
          case 3: {
            value[0] = key ^ tag;
            value[1] = rng.next();
            kern_return_t kr = cache.set(key, value, 4);
            CHECK(kr == KERN_SUCCESS || kr == KERN_RESOURCE_SHORTAGE,
                  "set returned unexpected code");
            break;
          }
          default: {
            ref_ptr<mc_item> item = cache.get(key);
            if (item) {
              CHECK(item->key() == key, "got an item filed under the wrong key");
              CHECK(item->value()[0] == (key ^ tag), "value inconsistent with key");
            }
            break;
          }
        }
      }
    }));
  }
  for (auto& t : ts) t->join();
  std::string why;
  CHECK(cache.check_quiesced(&why), why.c_str());
  CHECK(cache.size() <= cfg.max_items, "residency exceeded capacity");
  const mc_cache_stats s = cache.stats();
  CHECK(s.hits + s.misses == s.gets, "get accounting leaked");
  std::printf("table storm ok: shards=%d (resident=%zu, %llu gets)\n", cache.shards(),
              cache.size(), static_cast<unsigned long long>(s.gets));
}

// Arm 2 — the full IPC service under load (tests/mc_load.h): the quiesce
// invariant at teardown, and message conservation — every accepted
// request was served, replied to, and collected (the property the
// port-receive timeout fix protects). The last round's keyspace exceeds
// the zone, so its SETs meet KERN_RESOURCE_SHORTAGE under served load;
// the others fit.
void ipc_battery(int threads) {
  struct burst_round {
    int read_pct;
    std::uint64_t keyspace;
  };
  for (const burst_round rd :
       {burst_round{90, 96}, burst_round{30, 96}, burst_round{30, 192}}) {
    const int failures_before = g_failures;
    testing::burst_spec spec;
    spec.connections = threads;
    spec.duration_ms = 150;
    spec.read_pct = rd.read_pct;
    spec.keyspace = rd.keyspace;
    spec.cache.shards = 4;
    spec.cache.max_items = 128;
    spec.cache.value_words = 4;
    const std::uint64_t live_before = kobject::live_objects();
    testing::burst_result r = testing::run_burst(spec);
    CHECK(r.quiesce_error.empty(), r.quiesce_error.c_str());
    CHECK(r.ops > 0, "load burst completed no ops");
    CHECK(r.ops == r.served, "replies lost between server and clients");
    CHECK(r.latency.count() == r.ops, "latency accounting leaked");
    CHECK(kobject::live_objects() == live_before, "service leaked kernel objects");
    if (rd.keyspace > spec.cache.max_items) {
      CHECK(r.shortages > 0, "a keyspace beyond the zone met no zone shortage");
    }
    if (g_failures != failures_before) continue;
    std::printf("ipc battery ok: read%%=%d keys=%llu ops=%llu shortage=%llu\n", rd.read_pct,
                static_cast<unsigned long long>(rd.keyspace),
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.shortages));
  }
}

// Arm 3 — teardown vs. traffic: stop the server (destroy_port under the
// hood) while senders hammer the service port. Every sender must end on
// KERN_TERMINATED, the dead queue must be empty (the deactivate+drain
// fix), and the carried reply-port rights must all be released.
void teardown_race(int threads, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    mc_cache_config cfg;
    cfg.shards = 2;
    cfg.max_items = 64;
    cfg.value_words = 2;
    mc_cache cache(cfg);
    machcached_config scfg;
    scfg.workers = 2;
    auto server = std::make_unique<machcached_server>(cache, scfg);
    auto reply = make_object<port>("race-reply");
    std::atomic<bool> go{false};
    std::vector<std::unique_ptr<kthread>> senders;
    for (int t = 0; t < threads; ++t) {
      senders.push_back(kthread::spawn("mc-tx" + std::to_string(t), [&, t] {
        while (!go.load(std::memory_order_relaxed)) std::this_thread::yield();
        xorshift64 rng(static_cast<std::uint64_t>(t) + 99);
        for (int k = 0; k < 4096; ++k) {
          message m(MC_GET, {rng.next_below(32), 1});
          m.reply_to = reply;
          const kern_return_t kr = server->service().send(std::move(m));
          if (kr == KERN_TERMINATED) return;
          CHECK(kr == KERN_SUCCESS || kr == KERN_NO_SPACE, "unexpected send result");
        }
      }));
    }
    go.store(true);
    if (round % 2 == 1) std::this_thread::yield();
    server->stop();  // destroy_port races the senders
    for (auto& s : senders) s->join();
    CHECK(server->service().queued() == 0, "messages stranded in dead service port");
    // Workers replied to everything they dequeued; drain those replies,
    // then the only reference left to the reply port must be ours.
    while (reply->try_receive().has_value()) {
    }
    CHECK(reply->ref_count() == 1, "carried reply right leaked through teardown");
    server.reset();
  }
  std::printf("teardown race ok: rounds=%d\n", rounds);
}

}  // namespace

int main() {
  // Honors the MACHLOCK_* observability env knobs so the TSan CI job can
  // race the tracer/sampler against the full battery.
  trace_session session;
  const int threads = env_int("MACHLOCK_STRESS_THREADS", 4);
  const int iters = env_int("MACHLOCK_STRESS_ITERS", 20000);
  const int rounds = env_int("MACHLOCK_STRESS_ROUNDS", 20);

  for (int shards : {1, 8}) table_storm(shards, threads, iters);
  ipc_battery(threads);
  teardown_race(threads, rounds);

  if (g_failures != 0) {
    std::printf("FAILURES: %d\n", g_failures);
    return 1;
  }
  std::printf("ALL OK\n");
  return 0;
}
