// mcbench — the machcached served-traffic benchmark driver.
//
//   mcbench --workload <serve-read|serve-write-zipf|cache-direct> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Builds a 4-shard mc_cache, prefills 64Ki keys and (serve-*) starts a
// machcached_server, then drives it closed-loop from this file's own
// threads through the public API: port::send/receive for serve-*, direct
// mc_cache::get/set for cache-direct. All inputs come from --seed
// (gen.h). The last stdout line is one JSON object:
//   --trace 0: end-to-end metrics, measured with tracing off;
//   --trace 1: per-layer metrics — each segment runs an untraced window
//              (counter deltas), then a traced window with kmon and the
//              driver's spans on.
// Exits 1 when any correctness check fails, 2 on bad arguments.
// perfbench/README.md explains the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "hist.h"
#include "ipc/port.h"
#include "kern/object.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "spans.h"
#include "svc/machcached.h"
#include "sync/lockstat.h"

namespace {

using namespace mach;
using namespace perfbench;
using namespace std::chrono_literals;

struct workload_spec {
  const char* name;
  bool serve;   // through machcached_server, else direct mc_cache calls
  int threads;  // generator (serve-*) or caller (cache-direct) threads
  op_mix mix;
};

// At most 3 busy threads each (1 generator + 2 workers, or 3 callers), so
// one of the host's 4 CPUs stays free for everything else.
constexpr workload_spec kWorkloads[] = {
    {"serve-read", true, 1, {95, 0, false}},
    {"serve-write-zipf", true, 1, {50, 8, true}},
    {"cache-direct", false, 3, {95, 0, true}},
};
constexpr int kServeWorkers = 2;
constexpr int kWindow = 16;  // requests in flight per generator; stamps carry the slot in 4 bits
constexpr int kShards = 4;
// A run is kSegments segments, each on a freshly built rig: setup, warm-up,
// then its share of --seconds. Thread placement and port addresses (which
// pick the event buckets) change per rig, and the service drifts between
// a fast and a slow mode, so the end-to-end figures are medians over the
// segments instead of riding one placement. setup_s is the median of the
// setups.
constexpr int kSegments = 20;
constexpr auto kWarmup = 300ms;
constexpr auto kReplyTimeout = 1000ms;
// Each driver thread reads the peak RSS once it has completed this many
// requests, so rss_mb covers setup plus a fixed amount of traffic however
// fast the program serves it.
constexpr std::uint64_t kRssOps = kKeys;

enum phase : int { ph_warmup, ph_measure, ph_traced, ph_stop };
std::atomic<int> g_phase{ph_warmup};

// Window a phase's completions count toward: 0 untraced, 1 traced.
int window_of(int p) { return p == ph_measure ? 0 : p == ph_traced ? 1 : -1; }

struct window_stats {
  std::uint64_t ops = 0;
  lat_hist lat;
};

// One driver thread's tallies. Failures and conservation counts cover the
// whole run, warm-up included; ops and latency only the timed windows.
struct thread_state {
  thread_state(std::uint32_t tid, const request_source& src) : src(src), spans(tid) {}
  request_source src;
  window_stats win[2];
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;      // sends refused by the service port
  std::uint64_t timeouts = 0;     // reply receives that timed out
  std::uint64_t shortages = 0;    // SETs refused on zone exhaustion
  std::uint64_t bad = 0;          // replies or values that failed a check
  std::uint64_t accepted = 0;     // sends the service port accepted
  std::uint64_t replies = 0;
  std::uint64_t completed = 0;  // requests completed, warm-up included
  double rss_mb = 0.0;          // peak RSS when `completed` reached kRssOps
  std::uint64_t seq = 0;        // serve-*: request ids, unique across segments
  span_log spans;

  std::uint64_t failed() const { return refused + timeouts + shortages + bad; }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void count_completion(thread_state& st) {
  if (++st.completed == kRssOps) st.rss_mb = peak_rss_mb();
}

std::uint32_t op_code(op_kind k) {
  return k == op_kind::get ? MC_GET : k == op_kind::set ? MC_SET : MC_DEL;
}

// --- serve-*: one generator with a window of requests on its own reply port ---

void run_generator(port& service, thread_state& st) {
  struct slot {
    std::uint64_t seq = 0;
    request rq;
    std::uint64_t t_send0 = 0;
    std::uint64_t t_send1 = 0;
    bool traced = false;
  };
  slot slots[kWindow];
  int free_slots[kWindow];
  int nfree = 0;
  for (int s = kWindow - 1; s >= 0; --s) free_slots[nfree++] = s;
  ref_ptr<port> reply = make_object<port>("mc-reply");

  // Returns false when the service port refused the send.
  auto issue = [&](int s, int p) {
    slot& sl = slots[s];
    sl.rq = st.src.next();
    sl.seq = st.seq++;
    sl.traced = p == ph_traced;
    message m(op_code(sl.rq.kind));
    m.data.reserve(2 + kValueWords);
    m.data.push_back(sl.rq.key);
    m.data.push_back((sl.seq << 4) | static_cast<std::uint64_t>(s));  // echoed stamp
    if (sl.rq.kind == op_kind::set) {
      m.data.resize(2 + kValueWords);
      fill_value(sl.rq.key, sl.rq.version, m.data.data() + 2);
    }
    m.reply_to = reply;
    ++st.attempted;
    sl.t_send0 = now_nanos();
    const kern_return_t kr = service.send(std::move(m));
    if (sl.traced) sl.t_send1 = now_nanos();
    if (kr != KERN_SUCCESS) {
      ++st.refused;
      return false;
    }
    ++st.accepted;
    return true;
  };

  auto complete = [&](const message& m, std::uint64_t t_r0, std::uint64_t t_r1) {
    ++st.replies;
    count_completion(st);
    if (m.data.empty()) {
      ++st.bad;
      return;
    }
    const int s = static_cast<int>(m.data[0] & (kWindow - 1));
    slot& sl = slots[s];
    if (sl.seq != m.data[0] >> 4 || m.op != op_code(sl.rq.kind)) {
      ++st.bad;
      return;
    }
    bool ok = false;
    switch (sl.rq.kind) {
      case op_kind::get:
        ok = m.ret == KERN_INVALID_NAME ||
             (m.ret == KERN_SUCCESS &&
              value_matches(sl.rq.key, m.data.data() + 1, m.data.size() - 1));
        break;
      case op_kind::set:
        ok = m.ret == KERN_SUCCESS;
        if (m.ret == KERN_RESOURCE_SHORTAGE) ++st.shortages;
        break;
      case op_kind::del:
        ok = m.ret == KERN_SUCCESS || m.ret == KERN_INVALID_NAME;
        break;
    }
    if (!ok && m.ret != KERN_RESOURCE_SHORTAGE) ++st.bad;
    free_slots[nfree++] = s;
    const int p = g_phase.load(std::memory_order_relaxed);
    const int w = window_of(p);
    if (w < 0) return;
    ++st.win[w].ops;
    st.win[w].lat.record(t_r1 - sl.t_send0);
    if (sl.traced && p == ph_traced) {
      const std::uint64_t root = st.spans.next_id();
      const std::uint64_t send_ns = sl.t_send1 - sl.t_send0;
      const std::uint64_t recv_ns = t_r1 - t_r0;
      st.spans.record(sp_send, st.spans.next_id(), root, sl.seq, sl.t_send0, sl.t_send1, 0);
      st.spans.record(sp_receive, st.spans.next_id(), root, sl.seq, t_r0, t_r1, 0);
      st.spans.record(sp_request, root, 0, sl.seq, sl.t_send0, t_r1, send_ns + recv_ns);
    }
  };

  for (;;) {
    const int p = g_phase.load(std::memory_order_relaxed);
    if (p == ph_stop) break;
    while (nfree > 0) {
      if (!issue(free_slots[nfree - 1], p)) break;
      --nfree;
    }
    if (nfree == kWindow) continue;
    const std::uint64_t t_r0 = p == ph_traced ? now_nanos() : 0;
    std::optional<message> m = reply->receive(kReplyTimeout);
    if (!m.has_value()) {
      ++st.timeouts;
      continue;
    }
    complete(*m, t_r0, now_nanos());
  }
  // Every accepted send gets exactly one reply; wait the stragglers out.
  while (nfree < kWindow) {
    std::optional<message> m = reply->receive(kReplyTimeout);
    if (!m.has_value()) {
      ++st.timeouts;
      break;
    }
    complete(*m, 0, now_nanos());
  }
}

// --- cache-direct: callers on mc_cache, no IPC and no worker wakeups ---

void run_caller(mc_cache& cache, thread_state& st) {
  std::uint64_t value[kValueWords];
  std::uint64_t copy[kValueWords];  // a GET hit's value, checked after the clock stops
  for (;;) {
    const int p = g_phase.load(std::memory_order_relaxed);
    if (p == ph_stop) break;
    const request rq = st.src.next();
    const bool traced = p == ph_traced;
    if (rq.kind == op_kind::set) fill_value(rq.key, rq.version, value);
    ++st.attempted;
    bool hit = false;
    std::size_t hit_words = 0;
    std::uint64_t t_call = 0;  // end of the get/set call (traced only)
    std::uint64_t t_rel = 0;   // start of the reference drop (traced only)
    const std::uint64_t t0 = now_nanos();
    if (rq.kind == op_kind::get) {
      ref_ptr<mc_item> item = cache.get(rq.key);
      if (traced) t_call = now_nanos();
      if (item) {
        hit = true;
        hit_words = item->size();
        std::memcpy(copy, item->value(), std::min(hit_words, kValueWords) * sizeof(copy[0]));
      }
      if (traced) t_rel = now_nanos();
      item.reset();
    } else {  // cache-direct mixes have no DELs
      if (cache.set(rq.key, value, kValueWords) != KERN_SUCCESS) ++st.shortages;
      if (traced) t_call = t_rel = now_nanos();
    }
    const std::uint64_t t1 = now_nanos();
    if (hit && !value_matches(rq.key, copy, hit_words)) ++st.bad;
    count_completion(st);
    const int w = window_of(p);
    if (w < 0) continue;
    ++st.win[w].ops;
    st.win[w].lat.record(t1 - t0);
    if (traced) {
      const std::uint64_t root = st.spans.next_id();
      const span_name call = rq.kind == op_kind::get ? sp_get : sp_set;
      std::uint64_t covered = t_call - t0;
      st.spans.record(call, st.spans.next_id(), root, root, t0, t_call, 0);
      if (rq.kind == op_kind::get) {
        st.spans.record(sp_release, st.spans.next_id(), root, root, t_rel, t1, 0);
        covered += t1 - t_rel;
      }
      st.spans.record(sp_op, root, 0, root, t0, t1, covered);
    }
  }
}

// --- setup: cache, prefill, workers ---

struct rig {
  std::unique_ptr<mc_cache> cache;
  std::unique_ptr<machcached_server> server;  // declared last: dies before the cache
};

// Returns the number of prefill SETs that failed.
std::uint64_t build_rig(const workload_spec& w, rig& r, span_log* spans) {
  mc_cache_config cfg;
  cfg.shards = kShards;
  cfg.max_items = 2 * kKeys;
  cfg.value_words = kValueWords;
  r.cache = std::make_unique<mc_cache>(cfg);
  std::uint64_t failed = 0;
  std::uint64_t value[kValueWords];
  const std::uint64_t root = spans != nullptr ? spans->next_id() : 0;
  const std::uint64_t t0 = now_nanos();
  std::uint64_t covered = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    fill_value(k, 0, value);
    const std::uint64_t ts = spans != nullptr ? now_nanos() : 0;
    if (r.cache->set(k, value, kValueWords) != KERN_SUCCESS) ++failed;
    if (spans != nullptr) {
      const std::uint64_t te = now_nanos();
      spans->record(sp_prefill_set, spans->next_id(), root, root, ts, te, 0);
      covered += te - ts;
    }
  }
  if (spans != nullptr) spans->record(sp_prefill, root, 0, root, t0, now_nanos(), covered);
  if (w.serve) {
    machcached_config scfg;
    scfg.workers = kServeWorkers;
    r.server = std::make_unique<machcached_server>(*r.cache, scfg);
  }
  return failed;
}

void teardown(rig& r) {
  r.server.reset();
  r.cache.reset();
}

// --- counter snapshots for the per-layer report ---

// Named counter readings; a window's numbers are differences of two.
using counters = std::map<std::string, std::uint64_t>;

constexpr const char* kLockNames[] = {"mc-service", "mc-reply", "event-bucket", "mc-shard",
                                      "mc-items"};

std::uint64_t process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

// Always-on counters (lockstat by lock name, event counters, cache stats)
// plus the kmon ones, which move only while kmon is enabled.
counters snapshot(const mc_cache& cache) {
  counters c;
  const event_system_counters ev = event_counters();
  c["wakeups_no_waiter"] = ev.wakeups_no_waiter;
  c["blocks"] = ev.blocks_suspended;
  for (const char* n : kLockNames) {
    c[std::string(n) + ".acq"] = c[std::string(n) + ".contended"] = 0;
  }
  for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
    for (const char* n : kLockNames) {
      if (std::strcmp(e.name, n) == 0) {
        c[std::string(n) + ".acq"] += e.acquisitions;
        c[std::string(n) + ".contended"] += e.contended;
      }
    }
  }
  const mc_cache_stats cs = cache.stats();
  c["hits"] = cs.hits;
  c["misses"] = cs.misses;
  c["items_created"] = cs.sets - cs.set_failures;
  kmetrics_t& km = kmet();
  c["ref_ops"] = km.kern_ref_takes.value() + km.kern_ref_releases.value();
  c["lockref_fast"] = km.kern_lockref_fast.value();
  c["lockref_slow"] = km.kern_lockref_slow.value();
  const latency_histogram blk = km.sched_block_nanos.merged();
  c["block_n"] = blk.count();
  c["block_ns"] = blk.total_nanos();
  const latency_histogram srv = km.svc_serve_nanos.merged();
  c["serve_n"] = srv.count();
  c["serve_ns"] = srv.total_nanos();
  return c;
}

// acc += b - a, counter by counter.
void accumulate(counters& acc, const counters& a, const counters& b) {
  for (const auto& [k, v] : b) acc[k] += v - a.at(k);
}

// --- one segment: spawn the driver threads on a built rig and time it ---

struct totals {
  std::uint64_t win_ns[2] = {};  // untraced, traced
  std::uint64_t cpu_ns = 0;      // process CPU time over the untraced windows
  counters delta[2];             // counter deltas per window (per-layer run only)
};

void run_segment(const workload_spec& w, rig& r, std::vector<std::unique_ptr<thread_state>>& states,
                 std::chrono::milliseconds window, bool trace, totals& tot) {
  g_phase.store(ph_warmup, std::memory_order_relaxed);
  std::vector<std::unique_ptr<kthread>> threads;
  for (int t = 0; t < w.threads; ++t) {
    thread_state& st = *states[static_cast<std::size_t>(t)];
    mc_cache& cache = *r.cache;
    port* service = w.serve ? &r.server->service() : nullptr;
    auto drive = [&st, &cache, service] {
      if (service != nullptr) {
        run_generator(*service, st);
      } else {
        run_caller(cache, st);
      }
    };
    threads.push_back(kthread::spawn("mcbench-" + std::to_string(t), drive));
  }
  // Lock-registry snapshots walk every live lock and stall the traffic
  // briefly, so they run in ph_warmup pauses that count toward no window.
  std::this_thread::sleep_for(kWarmup);
  const counters c0 = trace ? snapshot(*r.cache) : counters{};
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_nanos();
  g_phase.store(ph_measure, std::memory_order_relaxed);
  std::this_thread::sleep_for(window);
  g_phase.store(trace ? ph_warmup : ph_stop, std::memory_order_relaxed);
  tot.win_ns[0] += now_nanos() - t0;
  tot.cpu_ns += process_cpu_ns() - cpu0;
  if (trace) {
    kmon::enable();
    const counters c1 = snapshot(*r.cache);
    const std::uint64_t t2 = now_nanos();
    g_phase.store(ph_traced, std::memory_order_relaxed);
    std::this_thread::sleep_for(window);
    g_phase.store(ph_stop, std::memory_order_relaxed);
    tot.win_ns[1] += now_nanos() - t2;
    const counters c2 = snapshot(*r.cache);
    kmon::disable();
    accumulate(tot.delta[0], c0, c1);
    accumulate(tot.delta[1], c1, c2);
  }
  for (auto& t : threads) t->join();
}

// --- output ---

struct metric_out {
  std::string name;
  double value;
  const char* unit;
  std::string base;  // what a ratio is taken over, for the text report
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }
double pct(double num, double den) { return 100.0 * ratio(num, den); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<metric_out>& ms) {
  for (const metric_out& m : ms) {
    std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit, m.base.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// Per-layer metrics. Always-on counts are deltas over the untraced windows
// divided by their ops; kmon counts and span times come from the traced
// windows.
std::vector<metric_out> per_layer(const workload_spec& w, const totals& tot,
                                  const window_stats (&sum)[2],
                                  const std::array<span_totals, sp_count>& spans) {
  const counters& d0 = tot.delta[0];
  const counters& d1 = tot.delta[1];
  auto v0 = [&](const std::string& k) { return static_cast<double>(d0.at(k)); };
  auto v1 = [&](const std::string& k) { return static_cast<double>(d1.at(k)); };
  const double ops0 = static_cast<double>(sum[0].ops);
  const double ops1 = static_cast<double>(sum[1].ops);
  const double ops_per_s = ratio(ops0 * 1e9, static_cast<double>(tot.win_ns[0]));
  const double traced_ops_per_s = ratio(ops1 * 1e9, static_cast<double>(tot.win_ns[1]));
  const std::string per_op = "per op, over " + std::to_string(sum[0].ops) + " ops";
  auto n_of = [](double n) { return std::to_string(static_cast<std::uint64_t>(n)); };

  std::vector<metric_out> ms;
  auto mean = [&](const char* name, double total, double n, const char* what) {
    ms.push_back({name, ratio(total, n), "ns", "mean of " + n_of(n) + " " + what});
  };
  auto span_mean = [&](const char* name, span_name sp, const char* what) {
    mean(name, static_cast<double>(spans[sp].total_ns), static_cast<double>(spans[sp].n), what);
  };
  auto lock = [&](const std::string& prefix, const std::string& lk, bool per_op_too) {
    const double acq = v0(lk + ".acq");
    const std::string base = n_of(acq) + " '" + lk + "' acquisitions";
    if (per_op_too) {
      ms.push_back({prefix + ".acq_per_op", ratio(acq, ops0), "count", base + ", " + per_op});
    }
    ms.push_back({prefix + ".contended_pct", pct(v0(lk + ".contended"), acq), "%", "of " + base});
  };
  const double send_ns = spans[sp_send].mean_ns();
  const double serve_ns = ratio(v1("serve_ns"), v1("serve_n"));
  const double rtt_ns = sum[1].lat.mean();

  span_mean("ipc.send_ns", sp_send, "sends");
  ms.push_back({"ipc.queue_wake_ns", w.serve ? rtt_ns - send_ns - serve_ns : 0.0, "ns",
                "mean round trip " + std::to_string(rtt_ns) + " ns - ipc.send_ns - svc.serve_ns"});
  lock("ipc.mc_service", "mc-service", true);
  lock("ipc.reply", "mc-reply", false);
  ms.push_back(
      {"sched.wakeups_no_waiter_per_op", ratio(v0("wakeups_no_waiter"), ops0), "count", per_op});
  ms.push_back({"sched.blocks_per_op", ratio(v0("blocks"), ops0), "count", per_op});
  mean("sched.block_ns", v1("block_ns"), v1("block_n"), "blocks");
  lock("sync.event_bucket", "event-bucket", true);
  lock("sync.mc_shard", "mc-shard", true);
  ms.push_back({"kern.ref_ops_per_op", ratio(v1("ref_ops"), ops1), "count",
                n_of(v1("ref_ops")) + " clones+releases over " + n_of(ops1) + " traced ops"});
  const double lockref_ops = v1("lockref_fast") + v1("lockref_slow");
  ms.push_back({"kern.lockref_slow_pct", pct(v1("lockref_slow"), lockref_ops), "%",
                "of " + n_of(lockref_ops) + " lockref ops"});
  span_mean("kern.release_ns", sp_release, "reference drops");
  lock("kern.zone", "mc-items", true);
  ms.push_back({"kern.objects_created_per_op", ratio(v0("items_created"), ops0), "count",
                "mc_item objects " + per_op});
  span_mean("kern.prefill_set_ns", sp_prefill_set, "prefill SETs");
  mean("svc.serve_ns", v1("serve_ns"), v1("serve_n"), "served requests");
  span_mean("svc.get_ns", sp_get, "direct GETs");
  span_mean("svc.set_ns", sp_set, "direct SETs");
  const double gets = v0("hits") + v0("misses");
  ms.push_back({"svc.hit_pct", pct(v0("hits"), gets), "%", "of " + n_of(gets) + " GETs"});
  ms.push_back({"proc.cpu_cores",
                ratio(static_cast<double>(tot.cpu_ns), static_cast<double>(tot.win_ns[0])), "cores",
                "process CPU time / wall time, untraced windows"});
  ms.push_back({"trace.overhead_pct", pct(ops_per_s - traced_ops_per_s, ops_per_s), "%",
                "untraced " + std::to_string(ops_per_s) + " vs traced " +
                    std::to_string(traced_ops_per_s) + " ops/s"});
  ms.push_back({"base.ops", ops0, "count", "ops completed in the untraced windows"});
  return ms;
}

struct options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mcbench: %s\nusage: mcbench --workload <serve-read|serve-write-zipf|cache-direct> "
               "--seed <n> --seconds <1..120> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

options parse(int argc, char** argv) {
  options o;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("missing value for last option");
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    std::uint64_t n = 0;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      if (!parse_u64(v, o.seed)) usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (k == "--seconds") {
      if (!parse_u64(v, n) || n < 1 || n > 120) usage("--seconds takes 1..120");
      o.seconds = static_cast<int>(n);
    } else if (k == "--trace") {
      if (!parse_u64(v, n) || n > 1) usage("--trace takes 0 or 1");
      o.trace = static_cast<int>(n);
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || o.seconds == 0 || o.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse(argc, argv);
  const workload_spec* wp = nullptr;
  for (const workload_spec& w : kWorkloads) {
    if (opt.workload == w.name) wp = &w;
  }
  if (wp == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const workload_spec& w = *wp;
  const bool trace = opt.trace == 1;
  std::printf("mcbench workload=%s seed=%llu seconds=%d trace=%d\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace);

  // Inputs, all from the seed.
  const std::vector<std::uint32_t> perm = key_permutation(opt.seed);
  std::unique_ptr<zipf_sampler> zipf;
  if (w.mix.zipf) zipf = std::make_unique<zipf_sampler>(kKeys, 0.99);
  std::vector<std::unique_ptr<thread_state>> states;
  for (int t = 0; t < w.threads; ++t) {
    const request_source src(opt.seed, static_cast<std::uint64_t>(t) + 1, w.mix, zipf.get(), perm);
    states.push_back(std::make_unique<thread_state>(static_cast<std::uint32_t>(t) + 1, src));
  }

  // The untraced windows add up to --seconds; the per-layer run gives each
  // segment a traced window of the same length after its untraced one.
  const auto window = std::chrono::milliseconds(opt.seconds * 1000 / kSegments / (trace ? 2 : 1));
  const std::uint64_t live_before = kobject::live_objects();
  span_log setup_spans(0);
  std::uint64_t prefill_failed = 0;
  std::uint64_t invariant_failed = 0;  // conservation, quiescence, live objects
  // Reported as found: a broken invariant can panic the teardown after it.
  int check_failures = 0;
  auto check_failed = [&check_failures](const std::string& what) {
    std::fprintf(stderr, "mcbench: check failed: %s\n", what.c_str());
    ++check_failures;
  };
  std::vector<double> setup_s;
  double rss_mb = 0.0;
  totals tot;
  window_stats sum[2];  // whole run: untraced, traced
  std::vector<double> seg_ops_per_s, seg_p50_us, seg_p99_us;
  for (int k = 0; k < kSegments; ++k) {
    rig r;
    const std::uint64_t t0 = now_nanos();
    prefill_failed += build_rig(w, r, trace ? &setup_spans : nullptr);
    setup_s.push_back(static_cast<double>(now_nanos() - t0) / 1e9);

    std::uint64_t accepted0 = 0, replies0 = 0;
    for (const auto& st : states) {
      accepted0 += st->accepted;
      replies0 += st->replies;
    }
    const std::uint64_t win0 = tot.win_ns[0];
    run_segment(w, r, states, window, trace, tot);
    if (k == 0) {
      // The latest of the driver threads' readings: setup plus kRssOps
      // requests per thread. A thread too slow to get there in the first
      // segment is read at its end instead.
      for (const auto& st : states) {
        if (st->rss_mb == 0.0) {
          std::printf("  driver thread completed %llu < %llu requests in segment 0\n",
                      static_cast<unsigned long long>(st->completed),
                      static_cast<unsigned long long>(kRssOps));
          st->rss_mb = peak_rss_mb();
        }
        rss_mb = std::max(rss_mb, st->rss_mb);
      }
    }
    // Fold the segment's windows into the run's, keeping its own figures.
    window_stats seg;
    for (const auto& st : states) {
      seg.ops += st->win[0].ops;
      seg.lat.merge(st->win[0].lat);
      for (int i = 0; i < 2; ++i) {
        sum[i].ops += st->win[i].ops;
        sum[i].lat.merge(st->win[i].lat);
        st->win[i] = window_stats{};
      }
    }
    seg_ops_per_s.push_back(
        ratio(static_cast<double>(seg.ops) * 1e9, static_cast<double>(tot.win_ns[0] - win0)));
    seg_p50_us.push_back(seg.lat.quantile(0.50) / 1e3);
    seg_p99_us.push_back(seg.lat.quantile(0.99) / 1e3);
    std::printf("  segment %d: setup %.4f s, %.0f ops/s, p50 %.3f us, p99 %.3f us, %llu samples\n",
                k, setup_s.back(), seg_ops_per_s.back(), seg_p50_us.back(), seg_p99_us.back(),
                static_cast<unsigned long long>(seg.lat.count()));

    // Message conservation: every accepted send was served and answered.
    if (w.serve) {
      std::uint64_t accepted = 0, replies = 0;
      for (const auto& st : states) {
        accepted += st->accepted;
        replies += st->replies;
      }
      accepted -= accepted0;
      replies -= replies0;
      const std::uint64_t sends_ok = r.server->service().sends_ok();
      r.server->stop();
      const std::uint64_t served = r.server->served();
      if (replies != accepted || accepted != served || sends_ok != accepted) {
        check_failed("conservation in segment " + std::to_string(k) + ": replies " +
                         std::to_string(replies) + ", accepted sends " + std::to_string(accepted) +
                         ", port sends_ok " + std::to_string(sends_ok) + ", served " +
                         std::to_string(served));
        ++invariant_failed;
      }
    }
    std::string why;
    if (!r.cache->check_quiesced(&why)) {
      check_failed("quiesce in segment " + std::to_string(k) + ": " + why);
      ++invariant_failed;
    }
    teardown(r);
  }
  if (kobject::live_objects() != live_before) {
    check_failed("live kobjects " + std::to_string(kobject::live_objects()) + " after the run, " +
                     std::to_string(live_before) + " before");
    ++invariant_failed;
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = prefill_failed + invariant_failed;
  for (const auto& st : states) {
    attempted += st->attempted;
    failed += st->failed();
    if (st->bad != 0) check_failed(std::to_string(st->bad) + " replies or values failed a check");
  }
  if (prefill_failed != 0) check_failed(std::to_string(prefill_failed) + " prefill SETs failed");
  if (sum[0].ops == 0) {
    check_failed("no requests completed in the timed windows");
    ++failed;
  }
  attempted = std::max<std::uint64_t>(attempted, 1);
  const bool correct = check_failures == 0 && failed == 0;
  std::printf("  %d segments; untraced windows %.3f s, %llu ops, %llu latency samples\n", kSegments,
              static_cast<double>(tot.win_ns[0]) / 1e9, static_cast<unsigned long long>(sum[0].ops),
              static_cast<unsigned long long>(sum[0].lat.count()));

  if (!trace) {
    const std::string of_segs = "median of " + std::to_string(kSegments) + " segments";
    const std::vector<metric_out> ms = {
        {"ops_per_s", median(seg_ops_per_s), "1/s", of_segs},
        {"p50_us", median(seg_p50_us), "us", of_segs},
        {"p99_us", median(seg_p99_us), "us", of_segs},
        {"setup_s", median(setup_s), "s", "median of " + std::to_string(kSegments) + " setups"},
        {"rss_mb", rss_mb, "MiB",
         "peak, through the first setup and " + std::to_string(kRssOps) + " requests per thread"},
        {"ok_pct", pct(static_cast<double>(attempted - std::min(failed, attempted)),
                       static_cast<double>(attempted)),
         "%", "of " + std::to_string(attempted) + " attempted"},
    };
    print_result(correct, attempted, failed, ms);
    return correct ? 0 : 1;
  }

  std::printf("  traced windows %.3f s, %llu ops\n", static_cast<double>(tot.win_ns[1]) / 1e9,
              static_cast<unsigned long long>(sum[1].ops));
  std::array<span_totals, sp_count> spans = setup_spans.totals();
  for (const auto& st : states) {
    for (int i = 0; i < sp_count; ++i) {
      spans[i].n += st->spans.totals()[i].n;
      spans[i].total_ns += st->spans.totals()[i].total_ns;
      spans[i].self_ns += st->spans.totals()[i].self_ns;
    }
  }
  std::printf("  span self time (self = duration - time covered by child spans):\n");
  for (int i = 0; i < sp_count; ++i) {
    if (spans[i].n == 0) continue;
    std::printf("    %-18s n=%-10llu mean %10.1f ns  self %10.1f ns\n", kSpanNames[i],
                static_cast<unsigned long long>(spans[i].n), spans[i].mean_ns(),
                spans[i].mean_self_ns());
  }
  if (!opt.trace_out.empty()) {
    std::vector<const span_log*> logs{&setup_spans};
    for (const auto& st : states) logs.push_back(&st->spans);
    if (write_trace(opt.trace_out, logs)) {
      std::printf("  spans written to %s\n", opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "mcbench: could not write %s\n", opt.trace_out.c_str());
    }
  }
  print_result(correct, attempted, failed, per_layer(w, tot, sum, spans));
  return correct ? 0 : 1;
}
