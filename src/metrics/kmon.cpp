#include "metrics/kmon.h"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <set>
#include <string_view>
#include <unordered_map>

#include "trace/trace_export.h"

namespace mach::kmon {

namespace detail {

std::atomic<bool> g_enabled{false};

constinit thread_local unsigned t_way = 0;

namespace {

// Live threads per way. A thread's claim is dropped when it exits, so the
// ways of exited threads are reused first.
std::atomic<unsigned> g_way_threads[num_ways];

struct way_claim {
  ~way_claim() { g_way_threads[t_way - 1].fetch_sub(1, std::memory_order_relaxed); }
};

}  // namespace

unsigned claim_way() noexcept {
  // Stripe assignment at first use, stable per thread: the way with the
  // fewest live threads, ties broken round-robin. Up to num_ways live
  // threads get a way each, however many threads came and went before,
  // so they share no stripe (and no row of the complex lock's reader
  // table).
  static std::atomic<unsigned> next{0};
  const unsigned start = next.fetch_add(1, std::memory_order_relaxed);
  unsigned w = start % num_ways;
  for (unsigned i = 1; i < num_ways; ++i) {
    const unsigned c = (start + i) % num_ways;
    if (g_way_threads[c].load(std::memory_order_relaxed) <
        g_way_threads[w].load(std::memory_order_relaxed)) {
      w = c;
    }
  }
  g_way_threads[w].fetch_add(1, std::memory_order_relaxed);
  t_way = w + 1;
  thread_local way_claim claim;  // drops the count at thread exit
  return w;
}

}  // namespace detail

void enable() noexcept { detail::g_enabled.store(true, std::memory_order_relaxed); }
void disable() noexcept { detail::g_enabled.store(false, std::memory_order_relaxed); }

const char* to_string(metric_kind k) noexcept {
  switch (k) {
    case metric_kind::counter: return "counter";
    case metric_kind::gauge: return "gauge";
    case metric_kind::histogram: return "histogram";
  }
  return "?";
}

std::string prom_escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// --- metric base / registry ---

metric::metric(const char* name, const char* help, metric_kind kind, std::string label_key,
               std::string label_value)
    : name_(name),
      help_(help),
      kind_(kind),
      label_key_(std::move(label_key)),
      label_value_(std::move(label_value)) {
  registry::instance().add(this);
}

metric::~metric() { registry::instance().remove(this); }

struct registry::impl {
  mutable std::mutex m;
  std::set<metric*> metrics;
};

registry& registry::instance() noexcept {
  // Intentionally leaked: metrics with static storage duration unregister
  // during shutdown, possibly after any registry with a destructor would
  // already be gone.
  static registry* r = new registry;
  return *r;
}

registry::impl& registry::self() const {
  static impl* i = new impl;
  return *i;
}

void registry::add(metric* m) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.metrics.insert(m);
}

void registry::remove(metric* m) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.metrics.erase(m);
}

std::size_t registry::live_metrics() const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return s.metrics.size();
}

std::vector<metric_sample> registry::snapshot() const {
  impl& s = self();
  std::vector<metric_sample> out;
  {
    std::lock_guard<std::mutex> g(s.m);
    out.reserve(s.metrics.size());
    for (const metric* m : s.metrics) {
      metric_sample ms;
      ms.name = m->name();
      ms.help = m->help();
      ms.kind = m->kind();
      ms.label_key = m->label_key();
      ms.label_value = m->label_value();
      m->sample_into(ms);
      out.push_back(std::move(ms));
    }
  }
  std::sort(out.begin(), out.end(), [](const metric_sample& a, const metric_sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.label_value < b.label_value;
  });
  return out;
}

// --- histogram ---

latency_histogram histogram::merged() const noexcept {
  latency_histogram out;
  for (const stripe& s : stripes_) {
    while (s.busy.test_and_set(std::memory_order_acquire)) cpu_relax();
    out.merge(s.h);
    s.busy.clear(std::memory_order_release);
  }
  return out;
}

void histogram::reset() noexcept {
  for (stripe& s : stripes_) {
    while (s.busy.test_and_set(std::memory_order_acquire)) cpu_relax();
    s.h.reset();
    s.busy.clear(std::memory_order_release);
  }
}

// --- exporters ---

namespace {

std::string prom_sample_name(const metric_sample& s) {
  if (s.label_key.empty()) return s.name;
  return s.name + "{" + s.label_key + "=\"" + prom_escape_label_value(s.label_value) + "\"}";
}

void append_double(std::string& out, double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out += std::to_string(static_cast<std::int64_t>(v));
  } else {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    out += buf;
  }
}

}  // namespace

std::string export_prometheus(const std::vector<metric_sample>& samples) {
  std::string out;
  const std::string* last_name = nullptr;
  for (const metric_sample& s : samples) {
    // HELP/TYPE once per metric name (labelled instances share them).
    if (last_name == nullptr || *last_name != s.name) {
      out += "# HELP " + s.name + " " + s.help + "\n";
      out += "# TYPE " + s.name + " ";
      out += to_string(s.kind);
      out += "\n";
    }
    last_name = &s.name;
    if (s.kind == metric_kind::histogram) {
      // Cumulative le-buckets over the log2 layout: bucket i holds values
      // whose bit_width is i, i.e. at most 2^i - 1 ns.
      std::uint64_t cum = 0;
      int top = 0;
      for (int i = 0; i < latency_histogram::num_buckets; ++i) {
        if (s.hist.bucket(i) != 0) top = i;
      }
      for (int i = 0; i <= top; ++i) {
        cum += s.hist.bucket(i);
        const std::uint64_t le = i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
        out += s.name + "_bucket{le=\"" + std::to_string(le) + "\"} " + std::to_string(cum) + "\n";
      }
      out += s.name + "_bucket{le=\"+Inf\"} " + std::to_string(s.hist.count()) + "\n";
      out += s.name + "_sum " + std::to_string(s.hist.total_nanos()) + "\n";
      out += s.name + "_count " + std::to_string(s.hist.count()) + "\n";
    } else {
      out += prom_sample_name(s) + " ";
      append_double(out, s.value);
      out += "\n";
    }
  }
  return out;
}

std::string export_json(const std::vector<metric_sample>& samples,
                        const std::vector<rate_sample>* rates) {
  std::unordered_map<std::string, double> rate_by_name;
  if (rates != nullptr) {
    for (const rate_sample& r : *rates) rate_by_name[r.name] = r.per_second;
  }
  std::string out = "[";
  bool first = true;
  for (const metric_sample& s : samples) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"kind\":\"";
    out += to_string(s.kind);
    out += "\"";
    if (!s.label_key.empty()) {
      out += ",\"" + json_escape(s.label_key) + "\":\"" + json_escape(s.label_value) + "\"";
    }
    if (s.kind == metric_kind::histogram) {
      out += ",\"count\":" + std::to_string(s.hist.count());
      out += ",\"sum_ns\":" + std::to_string(s.hist.total_nanos());
      out += ",\"p50_ns\":" + std::to_string(s.hist.quantile_nanos(0.5));
      out += ",\"p99_ns\":" + std::to_string(s.hist.quantile_nanos(0.99));
      out += ",\"max_ns\":" + std::to_string(s.hist.max_nanos());
    } else {
      out += ",\"value\":";
      append_double(out, s.value);
    }
    auto rit = rate_by_name.find(prom_sample_name(s));
    if (rit != rate_by_name.end()) {
      out += ",\"rate_per_sec\":";
      append_double(out, rit->second);
    }
    out += "}";
  }
  out += "\n]";
  return out;
}

bool export_file(const std::string& path, const std::vector<rate_sample>* rates) {
  const std::vector<metric_sample> snap = registry::instance().snapshot();
  const bool prom = path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  const std::string body = prom ? export_prometheus(snap) : export_json(snap, rates) + "\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

// --- rates ---

value_snapshot snapshot_values(std::uint64_t nanos) {
  value_snapshot out;
  out.nanos = nanos;
  for (const metric_sample& s : registry::instance().snapshot()) {
    if (s.kind != metric_kind::histogram) out.values.emplace_back(prom_sample_name(s), s.value);
  }
  return out;
}

std::vector<rate_sample> counter_rates(const value_snapshot& from, const value_snapshot& to) {
  std::vector<rate_sample> out;
  if (to.nanos <= from.nanos) return out;
  const double dt = static_cast<double>(to.nanos - from.nanos) / 1e9;
  const std::unordered_map<std::string, double> before(from.values.begin(), from.values.end());
  for (const auto& [name, v] : to.values) {
    // Counters follow the Prometheus "_total" convention; a labelled one
    // reads "machlock_x_total{k=\"v\"}".
    const std::string_view base = std::string_view(name).substr(0, name.find('{'));
    if (!base.ends_with("_total")) continue;
    auto it = before.find(name);
    if (it != before.end()) out.push_back({name, (v - it->second) / dt});
  }
  return out;
}

}  // namespace mach::kmon
