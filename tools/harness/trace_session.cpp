#include "harness/trace_session.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/bench_json.h"
#include "harness/env.h"
#include "harness/top_tables.h"
#include "metrics/kmetrics.h"
#include "metrics/kmon.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "sync/lock_order.h"
#include "sync/lockstat.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"
#include "trace/trace_export.h"

namespace mach {

namespace {

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

}  // namespace

watchdog_config watchdog_config_from_env() {
  watchdog_config cfg;
  cfg.spin_deadline = std::chrono::milliseconds(env_number("MACHLOCK_WATCHDOG_SPIN_MS", 250, 1));
  cfg.block_deadline =
      std::chrono::milliseconds(env_number("MACHLOCK_WATCHDOG_BLOCK_MS", 2000, 1));
  cfg.writer_deadline =
      std::chrono::milliseconds(env_number("MACHLOCK_WATCHDOG_WRITER_MS", 1000, 1));
  cfg.panic_on_trip = env_flag("MACHLOCK_WATCHDOG_PANIC");
  cfg.on_trip = [](const std::string& report) {
    std::fwrite(report.data(), 1, report.size(), stderr);
    std::fflush(stderr);
    print_lockstat_top(lock_registry::instance().snapshot(), 10);
  };
  return cfg;
}

trace_session::trace_session() {
  // Ring sizing must precede ktrace::enable(): rings are carved per thread
  // at first emit and keep their capacity for the process lifetime.
  if (const long cap = env_number("MACHLOCK_TRACE_RING_CAP", 0L, 1L); cap > 0) {
    ktrace::set_default_ring_capacity(static_cast<std::size_t>(cap));
  }
  const char* path = std::getenv("MACHLOCK_TRACE");
  if (path != nullptr && path[0] != '\0') {
    path_ = path;
    format_ = ends_with(path_, ".json") ? format::chrome_json : format::text;
    active_ = true;
    ktrace::enable();
  }
  if (env_flag("MACHLOCK_SPANS")) {
    kspan::enable();
    started_spans_ = true;
  }
  // 0 turns the flight ring off, and with it the metrics export's rates.
  const std::chrono::milliseconds flight(env_number("MACHLOCK_PROF_FLIGHT_MS", 20, 0));
  const char* metrics = std::getenv("MACHLOCK_METRICS");
  if (metrics != nullptr && metrics[0] != '\0') {
    metrics_path_ = metrics;
    kmon::enable();
    kprof::sampler::instance().record(true, flight);
  }
  const char* prof = std::getenv("MACHLOCK_PROF");
  if (prof != nullptr && prof[0] != '\0' && !kprof::sampler::instance().running()) {
    prof_path_ = std::strcmp(prof, "1") == 0 ? "kprof.json" : prof;
    // The flight recorder snapshots kmon counters; without the registry
    // enabled every snapshot would be zeros.
    kmon::enable();
    kprof::sampler::instance().start(env_number("MACHLOCK_PROF_HZ", kprof::default_hz, 1.0),
                                     flight);
    started_prof_ = true;
  }
  if (env_flag("MACHLOCK_DEADLOCK")) {
    wait_graph::instance().set_enabled(true);
    report_deadlock_ = true;
  }
  if (env_flag("MACHLOCK_LOCK_ORDER")) {
    lock_order_validator::instance().set_enabled(true);
    report_lock_order_ = true;
  }
  if (env_flag("MACHLOCK_WATCHDOG") && !watchdog::instance().running()) {
    watchdog::instance().start(watchdog_config_from_env());
    started_watchdog_ = true;
  }
}

trace_session::trace_session(std::string path, format f)
    : path_(std::move(path)), format_(f), active_(true) {
  ktrace::enable();
}

trace_session::~trace_session() {
  // Stop the monitors this session started before exporting, so their
  // final state is included and their threads are gone before teardown.
  if (started_watchdog_) watchdog::instance().stop();
  if (started_prof_) {
    kprof::sampler::instance().stop();
    const kprof::profile p = kprof::sampler::instance().snapshot();
    if (kprof::export_file(prof_path_)) {
      std::fprintf(stderr,
                   "kprof: wrote %llu ticks over %llu ms (%zu sites, %zu flight snapshots) to %s\n",
                   static_cast<unsigned long long>(p.ticks),
                   static_cast<unsigned long long>(p.duration_nanos / 1'000'000),
                   p.sites.size(), p.flight.size(), prof_path_.c_str());
    } else {
      std::fprintf(stderr, "kprof: FAILED to write %s\n", prof_path_.c_str());
    }
  }
  if (!metrics_path_.empty()) kprof::sampler::instance().record(false);
  if (started_spans_) kspan::disable();
  if (active_) {
    ktrace::disable();
    ktrace::trace_collection c = ktrace::collect();
    // Dropped records are an observability defect in their own right;
    // surface them in kmon so dashboards notice undersized rings.
    if (kmon::enabled() && c.total_dropped() != 0) {
      kmet().trace_dropped.inc(c.total_dropped());
    }
    const bool ok = format_ == format::chrome_json ? export_chrome_json_file(c, path_)
                                                   : export_text_file(c, path_);
    if (ok) {
      std::fprintf(stderr, "ktrace: wrote %zu events from %zu threads to %s (%llu dropped)\n",
                   c.events.size(), c.threads.size(), path_.c_str(),
                   static_cast<unsigned long long>(c.total_dropped()));
    } else {
      std::fprintf(stderr, "ktrace: FAILED to write %s\n", path_.c_str());
    }
  }
  if (!metrics_path_.empty()) {
    // Counter rates over the flight ring's span.
    const std::vector<kmon::value_snapshot> ring = kprof::sampler::instance().snapshot().flight;
    const std::vector<kmon::rate_sample> rates =
        ring.empty() ? std::vector<kmon::rate_sample>{}
                     : kmon::counter_rates(ring.front(), ring.back());
    if (kmon::export_file(metrics_path_, &rates)) {
      std::fprintf(stderr, "kmon: wrote %zu metrics to %s\n",
                   kmon::registry::instance().live_metrics(), metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "kmon: FAILED to write %s\n", metrics_path_.c_str());
    }
  }
  if (report_deadlock_) {
    if (auto cyc = wait_graph::instance().find_cycle()) {
      std::fprintf(stderr, "deadlock: wait-graph cycle at exit: %s\n", cyc->description.c_str());
    } else {
      std::fprintf(stderr, "deadlock: no wait-graph cycle at exit\n");
    }
  }
  if (report_lock_order_) {
    const std::vector<std::string> v = lock_order_validator::instance().take_violations();
    std::fprintf(stderr, "lock-order: %zu violation(s) recorded\n", v.size());
    for (const std::string& s : v) std::fprintf(stderr, "lock-order: %s\n", s.c_str());
  }
  // Machine-readable lockstat hook, independent of tracing.
  const char* lockstat = std::getenv("MACHLOCK_LOCKSTAT");
  if (lockstat != nullptr && std::strcmp(lockstat, "json") == 0) {
    std::string json = lock_registry::instance().snapshot_json();
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
  }
  if (const std::string out = bench_json::flush(); !out.empty()) {
    std::fprintf(stderr, "bench_json: wrote %s\n", out.c_str());
  }
}

}  // namespace mach
