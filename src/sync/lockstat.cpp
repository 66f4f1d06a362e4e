#include "sync/lockstat.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string_view>

#include "harness/table.h"
#include "trace/trace_export.h"

namespace mach {

namespace {

// Classes hash by (name, kind) into fixed buckets. A bucket is a chain
// that only grows at its head, published with a release store, so readers
// walk it without a lock; creators serialize on one mutex.
constexpr std::size_t k_buckets = 256;
std::atomic<lock_stat_class*> g_buckets[k_buckets];

std::mutex& create_mutex() {
  // Intentionally leaked: locks with static storage duration may look up
  // their class during shutdown.
  static std::mutex* m = new std::mutex;
  return *m;
}

std::size_t bucket_of(const char* name, bool is_complex) {
  return (std::hash<std::string_view>{}(name) ^ (is_complex ? 1u : 0u)) % k_buckets;
}

void record_locked(std::atomic_flag& busy, latency_histogram& h, std::uint64_t nanos) {
  while (busy.test_and_set(std::memory_order_acquire)) cpu_relax();
  h.record(nanos);
  busy.clear(std::memory_order_release);
}

}  // namespace

lock_stat_class* lock_stat_class::find(const char* name, bool is_complex) {
  auto search = [&](lock_stat_class* c) {
    while (c != nullptr && (c->is_complex != is_complex || c->name != name)) c = c->next;
    return c;
  };
  std::atomic<lock_stat_class*>& bucket = g_buckets[bucket_of(name, is_complex)];
  if (lock_stat_class* c = search(bucket.load(std::memory_order_acquire))) return c;
  std::lock_guard<std::mutex> g(create_mutex());
  lock_stat_class* head = bucket.load(std::memory_order_relaxed);
  if (lock_stat_class* c = search(head)) return c;
  auto* c = new lock_stat_class{name, is_complex};
  c->next = head;
  bucket.store(c, std::memory_order_release);
  return c;
}

void lock_stat_class::record_hold(std::uint64_t nanos) noexcept {
  record_locked(profile_busy, hold, nanos);
}

void lock_stat_class::record_wait(std::uint64_t nanos) noexcept {
  record_locked(profile_busy, wait, nanos);
}

lock_registry& lock_registry::instance() noexcept {
  static lock_registry r;
  return r;
}

std::vector<lock_stat_entry> lock_registry::snapshot() const {
  std::vector<lock_stat_entry> out;
  for (const std::atomic<lock_stat_class*>& bucket : g_buckets) {
    for (lock_stat_class* c = bucket.load(std::memory_order_acquire); c != nullptr;
         c = c->next) {
      lock_stat_entry e{c->name.c_str(), c->is_complex, 0, 0};
      for (const lock_stat_class::way& w : c->ways) {
        e.acquisitions += w.acquisitions.load(std::memory_order_relaxed);
        e.contended += w.contended.load(std::memory_order_relaxed);
      }
      while (c->profile_busy.test_and_set(std::memory_order_acquire)) cpu_relax();
      e.hold_samples = c->hold.count();
      e.hold_p50_nanos = c->hold.quantile_nanos(0.5);
      e.hold_p99_nanos = c->hold.quantile_nanos(0.99);
      e.wait_samples = c->wait.count();
      e.wait_p50_nanos = c->wait.quantile_nanos(0.5);
      e.wait_p99_nanos = c->wait.quantile_nanos(0.99);
      c->profile_busy.clear(std::memory_order_release);
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), [](const lock_stat_entry& a, const lock_stat_entry& b) {
    if (a.contended != b.contended) return a.contended > b.contended;
    if (a.acquisitions != b.acquisitions) return a.acquisitions > b.acquisitions;
    // Deterministic tie-breaks so output is stable across runs: name,
    // then kind ((name, kind) is unique, so the order is total).
    const int byname = std::strcmp(a.name, b.name);
    if (byname != 0) return byname < 0;
    return a.is_complex < b.is_complex;
  });
  return out;
}

namespace {

// "12.3us" style cell; "-" when the histogram never sampled (profiling is
// ktrace-gated, so zero samples is the common disabled case).
std::string ns_cell(std::uint64_t samples, std::uint64_t nanos) {
  if (samples == 0) return "-";
  if (nanos < 10'000) return table::num(nanos) + "ns";
  if (nanos < 10'000'000) return table::num(static_cast<double>(nanos) / 1e3, 1) + "us";
  return table::num(static_cast<double>(nanos) / 1e6, 1) + "ms";
}

}  // namespace

void lock_registry::print_top(std::size_t max_rows) const {
  std::vector<lock_stat_entry> snap = snapshot();
  table t("lockstat: most contended lock names (" + std::to_string(snap.size()) + " classes)");
  t.columns({"lock", "kind", "acquisitions", "contended", "hold p50", "hold p99", "wait p50",
             "wait p99"});
  std::size_t rows = 0;
  for (const lock_stat_entry& e : snap) {
    if (rows++ >= max_rows) break;
    t.row({e.name, e.is_complex ? "complex" : "simple", table::num(e.acquisitions),
           table::num(e.contended), ns_cell(e.hold_samples, e.hold_p50_nanos),
           ns_cell(e.hold_samples, e.hold_p99_nanos), ns_cell(e.wait_samples, e.wait_p50_nanos),
           ns_cell(e.wait_samples, e.wait_p99_nanos)});
  }
  t.print();
}

std::string lock_registry::snapshot_json() const {
  std::vector<lock_stat_entry> snap = snapshot();
  std::string out = "[";
  bool first = true;
  for (const lock_stat_entry& e : snap) {
    if (!first) out += ",";
    first = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n{\"name\":\"%s\",\"kind\":\"%s\",\"acquisitions\":%llu,\"contended\":%llu,",
                  json_escape(e.name).c_str(), e.is_complex ? "complex" : "simple",
                  static_cast<unsigned long long>(e.acquisitions),
                  static_cast<unsigned long long>(e.contended));
    out += buf;
    // Hold/wait profiling is ktrace-gated; a lock that was never timed has
    // zero samples, and emitting p50/p99 "0" for it would read as a
    // measured zero-latency lock. Omit the objects entirely instead (the
    // print_top table renders the same case as "-").
    if (e.hold_samples != 0) {
      std::snprintf(buf, sizeof(buf),
                    "\"hold\":{\"samples\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu},",
                    static_cast<unsigned long long>(e.hold_samples),
                    static_cast<unsigned long long>(e.hold_p50_nanos),
                    static_cast<unsigned long long>(e.hold_p99_nanos));
      out += buf;
    }
    if (e.wait_samples != 0) {
      std::snprintf(buf, sizeof(buf),
                    "\"wait\":{\"samples\":%llu,\"p50_ns\":%llu,\"p99_ns\":%llu},",
                    static_cast<unsigned long long>(e.wait_samples),
                    static_cast<unsigned long long>(e.wait_p50_nanos),
                    static_cast<unsigned long long>(e.wait_p99_nanos));
      out += buf;
    }
    out.pop_back();  // trailing comma from the last emitted field
    out += "}";
  }
  out += "\n]";
  return out;
}

}  // namespace mach
