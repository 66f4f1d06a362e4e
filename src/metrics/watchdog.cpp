#include "metrics/watchdog.h"

#include <cstdio>
#include <map>
#include <mutex>
#include <sstream>

#include "base/panic.h"
#include "base/stats.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"
#include "trace/trace_export.h"

namespace mach {

const char* to_string(stall_kind k) noexcept {
  switch (k) {
    case stall_kind::none: return "none";
    case stall_kind::simple_spin: return "simple-lock spin";
    case stall_kind::thread_blocked: return "blocked thread";
    case stall_kind::writer_wait: return "starved complex-lock writer";
  }
  return "?";
}

namespace watchdog_detail {
namespace {

thread_local int t_wait_depth = 0;

// Publish the calling thread's stall entry in its kprof slot. The monitor
// reads all slots racily and discards torn reads via the sequence check.
void publish_stall(stall_kind k, const void* resource, const char* name, std::uint64_t since,
                   std::uint64_t span) noexcept {
  kprof::detail::activity_slot& s = *kprof::detail::self_slot();
  const std::uint64_t q = s.stall_seq.load(std::memory_order_relaxed);
  s.stall_seq.store(q + 1, std::memory_order_relaxed);
  s.stall_resource.store(resource, std::memory_order_relaxed);
  s.stall_name.store(name, std::memory_order_relaxed);
  s.stall_since.store(since, std::memory_order_relaxed);
  s.stall_span.store(span, std::memory_order_relaxed);
  s.stall_kind.store(static_cast<int>(k), std::memory_order_relaxed);
  s.stall_seq.store(q + 2, std::memory_order_release);
}

}  // namespace

void note_wait_begin(stall_kind k, const void* resource, const char* name) noexcept {
  if (++t_wait_depth > 1) return;  // the outermost wait names the stall
  // The waiter's kspan context lets a trip report name the stalled
  // request, not just the stalled thread.
  publish_stall(k, resource, name, now_nanos(), kspan::current());
}

void note_wait_end() noexcept {
  if (--t_wait_depth > 0) return;
  publish_stall(stall_kind::none, nullptr, nullptr, 0, 0);
}

}  // namespace watchdog_detail

struct watchdog::impl {
  // Held by start, stop and a scan, trip sink included, so once stop
  // returns no scan runs and the sink is not called again. A scan only
  // tries it: a tick that meets start or stop skips its scan.
  std::mutex ctl;
  std::atomic<bool> running{false};
  watchdog_config cfg;                    // guarded by ctl
  std::map<int, std::uint64_t> reported;  // slot -> `since` it tripped for; ctl
  std::atomic<std::uint64_t> trips{0};
  mutable std::mutex m;
  std::string last_report;  // guarded by m

  std::uint64_t deadline_nanos(stall_kind k) const {
    using namespace std::chrono;
    switch (k) {
      case stall_kind::simple_spin: return duration_cast<nanoseconds>(cfg.spin_deadline).count();
      case stall_kind::thread_blocked:
        return duration_cast<nanoseconds>(cfg.block_deadline).count();
      case stall_kind::writer_wait:
        return duration_cast<nanoseconds>(cfg.writer_deadline).count();
      case stall_kind::none: break;
    }
    return ~std::uint64_t{0};
  }

  std::string build_report(stall_kind k, const void* thread, const void* resource,
                           const char* rname, std::uint64_t age_nanos,
                           std::uint64_t deadline_nanos, std::uint64_t span) {
    wait_graph& wg = wait_graph::instance();
    std::ostringstream os;
    os << "== machlock watchdog trip ==\n";
    os << "stall: " << to_string(k) << " — " << wg.thread_label(thread) << " waiting on '"
       << (rname != nullptr ? rname : "?") << "' (" << resource << ") for "
       << age_nanos / 1'000'000 << " ms (deadline " << deadline_nanos / 1'000'000 << " ms)\n";
    if (span != 0) {
      // The stall hit an in-flight request: name it so the trip can be
      // joined against the exported trace / span_report output.
      char buf[64];
      std::snprintf(buf, sizeof(buf), "request: trace=0x%x span=0x%x\n", span_trace_id(span),
                    span_span_id(span));
      os << buf;
    }
    // What the thread itself last published to the kprof slot table — the
    // deadline says how long it has been stuck; the activity word says
    // what it was last observed DOING (spinning on which lock, blocked on
    // which event), even when the sampler is not running.
    const kprof::thread_activity act = kprof::activity_for(thread);
    if (act.found) {
      os << "activity: " << kprof::to_string(act.state);
      if (!act.site.empty()) os << " on '" << act.site << "'";
      if (act.request) os << " (in-request)";
      os << "\n";
    } else {
      os << "activity: (thread never published to kprof)\n";
    }
    if (k == stall_kind::simple_spin && resource != nullptr) {
      // The waiter is still spinning, so the lock structure is alive.
      const auto* l = static_cast<const simple_lock_data_t*>(resource);
      const void* holder = l->holder.load(std::memory_order_relaxed);
      if (holder != nullptr) {
        os << "holder: " << wg.thread_label(holder) << " holds '" << l->name << "'\n";
      } else {
        os << "holder: none recorded (released since, or never published)\n";
      }
    }
    os << "held tracked locks (wait-graph):\n";
    if (wg.enabled()) {
      const std::vector<std::string> held = wg.held_resources();
      if (held.empty()) os << "  (none recorded)\n";
      for (const std::string& h : held) os << "  " << h << "\n";
      if (auto c = wg.find_cycle()) {
        os << "wait-graph cycle: " << c->description << "\n";
      } else {
        os << "wait-graph cycle: none found\n";
      }
    } else {
      os << "  (deadlock tracing disabled — set MACHLOCK_DEADLOCK=1 for holder edges)\n";
    }
    os << "lockstat top (most contended):\n";
    std::size_t rows = 0;
    for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
      if (rows++ >= 5) break;
      os << "  " << e.name << " [" << (e.is_complex ? "complex" : "simple")
         << "] acquisitions=" << e.acquisitions << " contended=" << e.contended << "\n";
    }
    if (ktrace::enabled()) {
      os << "ktrace tail (most recent events):\n";
      ktrace::trace_collection c = ktrace::collect();
      std::ostringstream tail;
      export_text(c, tail, 20);
      os << tail.str();
    } else {
      os << "ktrace tail: (tracing disabled — set MACHLOCK_TRACE to capture timelines)\n";
    }
    return os.str();
  }

  void trip(stall_kind k, const void* thread, const void* resource, const char* rname,
            std::uint64_t age, std::uint64_t deadline, std::uint64_t span) {
    const std::string report = build_report(k, thread, resource, rname, age, deadline, span);
    trips.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> g(m);
      last_report = report;
    }
    if (cfg.on_trip) {
      cfg.on_trip(report);
    } else {
      std::fwrite(report.data(), 1, report.size(), stderr);
      std::fflush(stderr);
    }
    if (cfg.panic_on_trip) {
      panic("watchdog: " + std::string(to_string(k)) + " stall on '" +
            (rname != nullptr ? rname : "?") + "' exceeded deadline");
    }
  }

  void scan() {
    const std::uint64_t now = now_nanos();
    for (int i = 0; i < kprof::detail::k_slots; ++i) {
      auto& s = kprof::detail::g_slots[i];
      const std::uint64_t q1 = s.stall_seq.load(std::memory_order_acquire);
      if (q1 & 1) continue;  // owner mid-write
      const auto k = static_cast<stall_kind>(s.stall_kind.load(std::memory_order_relaxed));
      if (k == stall_kind::none) {
        reported.erase(i);
        continue;
      }
      const void* resource = s.stall_resource.load(std::memory_order_relaxed);
      const char* rname = s.stall_name.load(std::memory_order_relaxed);
      const std::uint64_t since = s.stall_since.load(std::memory_order_relaxed);
      const void* thread = s.token.load(std::memory_order_relaxed);
      const std::uint64_t span = s.stall_span.load(std::memory_order_relaxed);
      if (s.stall_seq.load(std::memory_order_acquire) != q1) continue;  // torn read
      const std::uint64_t deadline = deadline_nanos(k);
      if (now - since < deadline) continue;
      auto it = reported.find(i);
      if (it != reported.end() && it->second == since) continue;  // already tripped
      reported[i] = since;
      trip(k, thread, resource, rname, now - since, deadline, span);
    }
  }
};

void watchdog_detail::scan() {
  watchdog::impl& s = watchdog::instance().self();
  std::unique_lock<std::mutex> g(s.ctl, std::try_to_lock);
  if (g.owns_lock() && s.running.load(std::memory_order_relaxed)) s.scan();
}

watchdog& watchdog::instance() noexcept {
  static watchdog* w = new watchdog;
  return *w;
}

watchdog::impl& watchdog::self() const {
  static impl* i = new impl;
  return *i;
}

void watchdog::start(const watchdog_config& cfg) {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.ctl);
  if (s.running.load(std::memory_order_relaxed)) return;
  s.cfg = cfg;
  s.reported.clear();
  s.running.store(true, std::memory_order_relaxed);
  probe_set(probe_watchdog, true);
  kprof::sampler::instance().watch(true);
}

void watchdog::stop() {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.ctl);
  if (!s.running.load(std::memory_order_relaxed)) return;
  probe_set(probe_watchdog, false);
  s.running.store(false, std::memory_order_relaxed);
  kprof::sampler::instance().watch(false);
}

bool watchdog::running() const noexcept {
  return self().running.load(std::memory_order_relaxed);
}

std::uint64_t watchdog::trips() const noexcept {
  return self().trips.load(std::memory_order_relaxed);
}

std::string watchdog::last_report() const {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return s.last_report;
}

}  // namespace mach
