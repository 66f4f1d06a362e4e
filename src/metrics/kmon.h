// kmon — kernel-wide metrics registry.
//
// lockstat (sync/lockstat.h) counts lock events and ktrace (trace/ktrace.h)
// timestamps them, but nothing observes the REST of the kernel: how many
// context switches the scheduler performed, how deep the wait queues are,
// how many RPCs are in flight, how often the pageout daemon ran, how many
// TLB-shootdown rounds the vm layer paid for. kmon is that system-wide
// instrument: a typed registry of self-registering metrics that every
// subsystem feeds, exportable as JSON or Prometheus text exposition, with
// counter rates computed between two value snapshots (kprof's flight ring
// keeps them; prof/kprof.h).
//
// Metric types:
//   * counter   — monotonically increasing event tally, a striped_counter
//                 (cacheline-padded per-CPU-ish ways, also used by
//                 always-on counts) so concurrent writers do not bounce
//                 one line;
//   * gauge     — instantaneous signed level (queue depth, in-flight ops);
//   * callback_gauge — gauge evaluated lazily at snapshot time (zone
//                 occupancy, live object count, lockstat bridges);
//   * histogram — log2-bucketed nanosecond distribution reusing
//                 base/stats.h latency_histogram, striped like counters.
//
// Cost model (the same discipline as ktrace): compiled in unconditionally;
// runtime-disabled by default; every disabled update is ONE relaxed atomic
// load and a predicted-taken early return — no stores, no clock reads.
// Enable via kmon::enable() or MACHLOCK_METRICS=<file> (trace_session).
//
// Metric names follow Prometheus conventions ("machlock_<subsystem>_<what>"
// with counters suffixed "_total"); an optional single label supports
// per-instance metrics such as zone occupancy. The canonical metric set
// lives in metrics/kmetrics.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/compiler.h"
#include "base/stats.h"

namespace mach::kmon {

inline constexpr unsigned num_ways = 8;

namespace detail {
extern std::atomic<bool> g_enabled;
// The calling thread's stripe index plus one; 0 until its first use.
extern constinit thread_local unsigned t_way;
unsigned claim_way() noexcept;
// The calling thread's stripe index in [0, num_ways); inline for lockstat.
inline unsigned way_index() noexcept {
  const unsigned w = t_way;
  return w != 0 ? w - 1 : claim_way();
}
}  // namespace detail

// The global switch. enabled() is the update fast path: a single relaxed
// load, so disabled metrics stay near-free.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }
void enable() noexcept;
void disable() noexcept;

enum class metric_kind { counter, gauge, histogram };
const char* to_string(metric_kind k) noexcept;

// One metric's value at snapshot time.
struct metric_sample {
  std::string name;
  std::string help;
  metric_kind kind = metric_kind::counter;
  std::string label_key;    // optional: single Prometheus label
  std::string label_value;
  double value = 0.0;       // counter / gauge
  latency_histogram hist;   // histogram only
};

class metric;

// Global, never-destroyed directory of live metrics (metrics with static
// storage duration may unregister after main).
class registry {
 public:
  static registry& instance() noexcept;

  void add(metric* m);
  void remove(metric* m);
  std::size_t live_metrics() const;

  // Snapshot every live metric, sorted by name (then label) so output is
  // deterministic.
  std::vector<metric_sample> snapshot() const;

  // Zero every resettable metric (between bench rounds). Callback gauges
  // are unaffected (they have no state here).
  void reset_all();

  // Top-style dump on stdout: metrics sorted by value, largest first.
  // max_rows == 0 prints everything.
  void print_top(std::size_t max_rows = 0) const;

 private:
  registry() = default;
  struct impl;
  impl& self() const;
};

// Base: name + kind + self-registration.
class metric {
 public:
  metric(const char* name, const char* help, metric_kind kind, std::string label_key = {},
         std::string label_value = {});
  virtual ~metric();
  metric(const metric&) = delete;
  metric& operator=(const metric&) = delete;

  const char* name() const noexcept { return name_; }
  const char* help() const noexcept { return help_; }
  metric_kind kind() const noexcept { return kind_; }
  const std::string& label_key() const noexcept { return label_key_; }
  const std::string& label_value() const noexcept { return label_value_; }

  // Fill `s` (pre-populated with name/kind/label) with the current value.
  virtual void sample_into(metric_sample& s) const = 0;
  virtual void reset() noexcept {}

 private:
  const char* name_;
  const char* help_;
  metric_kind kind_;
  std::string label_key_;
  std::string label_value_;
};

// An always-on count striped across the ways: each thread adds on its own
// way's cacheline, so concurrent writers share no line. value() is a racy
// sum — the usual diagnostics trade.
class striped_counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    ways_[detail::way_index()].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const way& w : ways_) sum += w.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (way& w : ways_) w.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(cacheline_size) way {
    std::atomic<std::uint64_t> v{0};
  };
  way ways_[num_ways];
};

// Monotonic event counter: a striped_counter that counts only while kmon
// is enabled.
class counter final : public metric {
 public:
  counter(const char* name, const char* help)
      : metric(name, help, metric_kind::counter) {}

  void inc(std::uint64_t n = 1) noexcept {
    if (!enabled()) [[likely]] return;
    c_.add(n);
  }

  std::uint64_t value() const noexcept { return c_.value(); }

  void sample_into(metric_sample& s) const override { s.value = static_cast<double>(value()); }
  void reset() noexcept override { c_.reset(); }

 private:
  striped_counter c_;
};

// Signed level. Updates are gated like counters, so a gauge paired across
// an enable/disable toggle can transiently drift; exporters report the raw
// signed value.
class gauge final : public metric {
 public:
  gauge(const char* name, const char* help) : metric(name, help, metric_kind::gauge) {}

  void add(std::int64_t n = 1) noexcept {
    if (!enabled()) [[likely]] return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) noexcept { add(-n); }
  void set(std::int64_t n) noexcept {
    if (!enabled()) [[likely]] return;
    v_.store(n, std::memory_order_relaxed);
  }

  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void sample_into(metric_sample& s) const override { s.value = static_cast<double>(value()); }
  void reset() noexcept override { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Gauge whose value is computed at snapshot time (no update fast path at
// all): zone occupancy, live kobject count, lockstat bridges.
class callback_gauge final : public metric {
 public:
  callback_gauge(const char* name, const char* help, std::function<double()> fn,
                 std::string label_key = {}, std::string label_value = {})
      : metric(name, help, metric_kind::gauge, std::move(label_key), std::move(label_value)),
        fn_(std::move(fn)) {}

  void sample_into(metric_sample& s) const override { s.value = fn_ ? fn_() : 0.0; }

 private:
  std::function<double()> fn_;
};

// Striped log2 histogram of nanosecond values. Each stripe is a
// latency_histogram behind a tiny spinlock; record() contends only within
// one stripe, and only while metrics are enabled.
class histogram final : public metric {
 public:
  histogram(const char* name, const char* help) : metric(name, help, metric_kind::histogram) {}
  // Labelled variant (e.g. machlock_span_nanos{kind="rpc"}), for families
  // created per instance like kspan's per-kind latency histograms.
  histogram(const char* name, const char* help, std::string label_key, std::string label_value)
      : metric(name, help, metric_kind::histogram, std::move(label_key), std::move(label_value)) {}

  void record(std::uint64_t nanos) noexcept {
    if (!enabled()) [[likely]] return;
    stripe& s = stripes_[detail::way_index()];
    while (s.busy.test_and_set(std::memory_order_acquire)) cpu_relax();
    s.h.record(nanos);
    s.busy.clear(std::memory_order_release);
  }

  // Merged copy of all stripes.
  latency_histogram merged() const noexcept;

  void sample_into(metric_sample& s) const override { s.hist = merged(); }
  void reset() noexcept override;

 private:
  struct alignas(cacheline_size) stripe {
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    latency_histogram h;
  };
  stripe stripes_[num_ways];
};

// --- exporters ---

// Escape a label value per the Prometheus exposition format: backslash,
// double-quote, and line feed become \\, \", and \n. Used everywhere a
// label value is interpolated into a sample name (text exporter, rate
// keys, print_top) so hostile values cannot break the line format.
std::string prom_escape_label_value(const std::string& v);

// Prometheus text exposition format (v0.0.4): HELP/TYPE headers, counters
// and gauges as single samples, histograms as cumulative le-buckets plus
// _sum/_count. Parseable by any Prometheus scraper and by the test-side
// mini-parser (tests/test_metrics.cpp).
std::string export_prometheus(const std::vector<metric_sample>& samples);

// One JSON object per metric. When `rates` is non-null, counters carry
// their rate as "rate_per_sec".
struct rate_sample {
  std::string name;   // metric name (+ "{label}" suffix when labelled)
  double per_second = 0.0;
};
std::string export_json(const std::vector<metric_sample>& samples,
                        const std::vector<rate_sample>* rates = nullptr);

// Snapshot now and write `path`: Prometheus text if the path ends in
// ".prom", JSON (with `rates`, when given) otherwise. Returns false on
// I/O failure.
bool export_file(const std::string& path, const std::vector<rate_sample>* rates = nullptr);

// --- rates ---

// Every counter and gauge value at one instant, keyed by sample name as
// rate_sample names them; histograms are left out. kprof's flight ring is
// a sequence of these.
struct value_snapshot {
  std::uint64_t nanos = 0;  // the ring's clock
  std::vector<std::pair<std::string, double>> values;
};
value_snapshot snapshot_values(std::uint64_t nanos);

// Per-second rate of every counter (a "_total" name) present in both
// snapshots, from `from` to `to`; empty unless `to` is later. The one
// delta function behind the JSON export's rate_per_sec and prof_report's
// flight rates.
std::vector<rate_sample> counter_rates(const value_snapshot& from, const value_snapshot& to);

}  // namespace mach::kmon
