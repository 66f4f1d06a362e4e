// A test-only load driver for machcached's served path (svc/machcached.h).
//
// It builds a cache and a server, prefills every key, and runs
// `connections` client kthreads for `duration_ms` against two workers.
// Each client keeps up to 8 requests in flight on the service port (an
// open loop inside a bounded window) and collects the replies on its own
// reply port with a bounded 50 ms receive, the path whose timeout race a
// lost or stranded reply would expose. It reports only what the
// conservation checks of test_machcached and stress_machcached read;
// throughput is perfbench's question (perfbench/README.md), not this
// driver's.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/stats.h"
#include "sched/kthread.h"
#include "svc/machcached.h"

namespace mach::testing {

struct burst_spec {
  int connections = 4;
  int duration_ms = 200;
  int read_pct = 90;  // GETs; of the rest, one in 8 is a DELETE and the others SETs
  std::uint64_t keyspace = 512;
  mc_cache_config cache;
};

struct burst_result {
  std::uint64_t ops = 0;        // replies collected by the clients
  std::uint64_t served = 0;     // requests the server served
  std::uint64_t shortages = 0;  // SETs refused on zone exhaustion
  latency_histogram latency;    // one round-trip sample per collected reply
  std::string quiesce_error;    // empty when mc_cache::check_quiesced held
};

namespace burst_detail {

constexpr int kWorkers = 2;
constexpr int kWindow = 8;    // max in-flight requests per connection
constexpr int kDelEvery = 8;  // one in 8 non-GET requests is a DELETE

// One client connection. Every accepted send is answered exactly once
// (the server is stopped only after all connections join), so the drain
// at the end waits for the stragglers.
inline void run_connection(int idx, const burst_spec& spec, port& service,
                           std::uint64_t deadline, burst_result& out) {
  using namespace std::chrono_literals;
  xorshift64 rng(0x6d63ull * 1315423911u + static_cast<std::uint64_t>(idx));
  ref_ptr<port> reply = make_object<port>("mc-conn-reply");
  std::vector<std::uint64_t> value(spec.cache.value_words, 0);

  int in_flight = 0;
  bool service_up = true;
  auto absorb = [&](const message& m) {
    --in_flight;
    ++out.ops;
    if (!m.data.empty()) {
      const std::uint64_t sent = m.data[0];
      const std::uint64_t now = now_nanos();
      out.latency.record(now > sent ? now - sent : 0);
    }
    if (m.ret == KERN_RESOURCE_SHORTAGE) ++out.shortages;
  };

  while (service_up && now_nanos() < deadline) {
    // Issue until the window is full (or the service port pushes back),
    // then reap at least one reply.
    while (service_up && in_flight < kWindow && now_nanos() < deadline) {
      const std::uint64_t key = rng.next_below(std::max<std::uint64_t>(spec.keyspace, 1));
      message req;
      if (rng.next_below(100) < static_cast<std::uint64_t>(spec.read_pct)) {
        req.op = MC_GET;
        req.data = {key, now_nanos()};
      } else if (rng.next_below(kDelEvery) == 0) {
        req.op = MC_DEL;
        req.data = {key, now_nanos()};
      } else {
        req.op = MC_SET;
        req.data = {key, now_nanos()};
        value[0] = key ^ 0xfeedfaceull;
        req.data.insert(req.data.end(), value.begin(), value.end());
      }
      req.reply_to = reply;
      const kern_return_t kr = service.send(std::move(req));
      if (kr == KERN_SUCCESS) {
        ++in_flight;
      } else if (kr == KERN_NO_SPACE) {
        break;  // queue full: go reap replies instead of hammering
      } else {
        service_up = false;  // KERN_TERMINATED: server shut down under us
      }
    }
    if (in_flight == 0) continue;
    // A reply landing at the timeout boundary must not be stranded for a
    // later call to mis-collect.
    if (std::optional<message> m = reply->receive(50ms)) absorb(*m);
  }

  int dry = 0;
  while (in_flight > 0 && dry < 20) {
    if (std::optional<message> m = reply->receive(250ms)) {
      absorb(*m);
      dry = 0;
    } else {
      ++dry;
    }
  }
}

}  // namespace burst_detail

// Runs one burst per `spec` and tears the service down. The cache, the
// server and every port are dead when this returns.
inline burst_result run_burst(const burst_spec& spec) {
  mc_cache cache(spec.cache);
  machcached_config scfg;
  scfg.workers = burst_detail::kWorkers;
  machcached_server server(cache, scfg);

  std::vector<std::uint64_t> value(spec.cache.value_words, 0);
  for (std::uint64_t k = 0; k < spec.keyspace; ++k) {
    value[0] = k ^ 0xfeedfaceull;
    (void)cache.set(k, value.data(), value.size());  // a shortage just lowers the hit rate
  }

  std::vector<burst_result> conns(static_cast<std::size_t>(spec.connections));
  const std::uint64_t deadline =
      now_nanos() + static_cast<std::uint64_t>(spec.duration_ms) * 1'000'000ull;
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < spec.connections; ++i) {
    threads.push_back(kthread::spawn("mc-conn-" + std::to_string(i), [&, i] {
      burst_detail::run_connection(i, spec, server.service(), deadline,
                                     conns[static_cast<std::size_t>(i)]);
    }));
  }
  for (auto& t : threads) t->join();
  server.stop();

  burst_result r;
  for (const burst_result& c : conns) {
    r.ops += c.ops;
    r.shortages += c.shortages;
    r.latency.merge(c.latency);
  }
  r.served = server.served();
  (void)cache.check_quiesced(&r.quiesce_error);
  return r;
}

}  // namespace mach::testing
