#include "metrics/watchdog.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/compiler.h"
#include "base/panic.h"
#include "base/stats.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
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

std::atomic<bool> g_armed{false};
constinit thread_local int t_wait_depth = 0;

namespace {

// The stall table: one seqlock-published slot per waiting thread. Writers
// (the waiting threads) touch only their own slot; the monitor reads all
// slots racily and discards torn reads via the sequence check.
struct alignas(cacheline_size) stall_slot {
  std::atomic<std::uint64_t> seq{0};       // odd while the owner writes
  std::atomic<const void*> thread{nullptr};  // owner token; null = slot free
  std::atomic<const void*> resource{nullptr};
  std::atomic<const char*> rname{nullptr};
  std::atomic<std::uint64_t> since{0};
  std::atomic<int> kind{0};
  // The waiter's kspan context at wait begin (0 when none): a trip report
  // can then name the stalled *request*, not just the stalled thread.
  std::atomic<std::uint64_t> span{0};
};

constexpr int k_stall_slots = 256;
stall_slot g_stalls[k_stall_slots];

// Per-thread slot ownership, released at thread exit so slots recycle
// across the short-lived kthreads the tests and benches spawn.
struct slot_owner {
  int idx = -1;
  ~slot_owner() {
    if (idx < 0) return;
    stall_slot& s = g_stalls[idx];
    const std::uint64_t q = s.seq.load(std::memory_order_relaxed);
    s.seq.store(q + 1, std::memory_order_relaxed);
    s.kind.store(static_cast<int>(stall_kind::none), std::memory_order_relaxed);
    s.seq.store(q + 2, std::memory_order_release);
    s.thread.store(nullptr, std::memory_order_release);
  }
};
thread_local slot_owner t_slot;

int claim_slot() {
  const void* me = current_thread_token();
  const std::size_t h = std::hash<const void*>{}(me);
  for (int i = 0; i < k_stall_slots; ++i) {
    const int idx = static_cast<int>((h + static_cast<std::size_t>(i)) % k_stall_slots);
    const void* expect = nullptr;
    if (g_stalls[idx].thread.compare_exchange_strong(expect, me, std::memory_order_acq_rel)) {
      return idx;
    }
  }
  return -1;  // table full: this stall goes unobserved, nothing breaks
}

}  // namespace

void note_wait_begin_slow(stall_kind k, const void* resource, const char* name) noexcept {
  if (++t_wait_depth > 1) return;  // the outermost wait names the stall
  if (t_slot.idx < 0) t_slot.idx = claim_slot();
  if (t_slot.idx < 0) return;
  stall_slot& s = g_stalls[t_slot.idx];
  const std::uint64_t q = s.seq.load(std::memory_order_relaxed);
  s.seq.store(q + 1, std::memory_order_relaxed);
  s.resource.store(resource, std::memory_order_relaxed);
  s.rname.store(name, std::memory_order_relaxed);
  s.since.store(now_nanos(), std::memory_order_relaxed);
  s.kind.store(static_cast<int>(k), std::memory_order_relaxed);
  s.span.store(kspan::current(), std::memory_order_relaxed);
  s.seq.store(q + 2, std::memory_order_release);
}

void note_wait_end_slow() noexcept {
  if (--t_wait_depth > 0) return;
  if (t_slot.idx < 0) return;
  stall_slot& s = g_stalls[t_slot.idx];
  const std::uint64_t q = s.seq.load(std::memory_order_relaxed);
  s.seq.store(q + 1, std::memory_order_relaxed);
  s.kind.store(static_cast<int>(stall_kind::none), std::memory_order_relaxed);
  s.span.store(0, std::memory_order_relaxed);
  s.seq.store(q + 2, std::memory_order_release);
}

}  // namespace watchdog_detail

namespace {

int env_int(const char* var, int def) {
  const char* v = std::getenv(var);
  if (v == nullptr || v[0] == '\0') return def;
  const int n = std::atoi(v);
  return n > 0 ? n : def;
}

}  // namespace

watchdog_config watchdog_config_from_env() {
  watchdog_config cfg;
  cfg.poll = std::chrono::milliseconds(env_int("MACHLOCK_WATCHDOG_POLL_MS", 10));
  cfg.spin_deadline = std::chrono::milliseconds(env_int("MACHLOCK_WATCHDOG_SPIN_MS", 250));
  cfg.block_deadline = std::chrono::milliseconds(env_int("MACHLOCK_WATCHDOG_BLOCK_MS", 2000));
  cfg.writer_deadline = std::chrono::milliseconds(env_int("MACHLOCK_WATCHDOG_WRITER_MS", 1000));
  const char* p = std::getenv("MACHLOCK_WATCHDOG_PANIC");
  cfg.panic_on_trip = p != nullptr && p[0] == '1';
  return cfg;
}

struct watchdog::impl {
  mutable std::mutex m;
  std::thread thread;
  std::atomic<bool> stop{false};
  bool running = false;
  watchdog_config cfg;
  std::atomic<std::uint64_t> trips{0};
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
    std::function<void(const std::string&)> sink;
    bool do_panic = false;
    {
      std::lock_guard<std::mutex> g(m);
      last_report = report;
      sink = cfg.on_trip;
      do_panic = cfg.panic_on_trip;
    }
    if (sink) {
      sink(report);
    } else {
      std::fwrite(report.data(), 1, report.size(), stderr);
      std::fflush(stderr);
      // The full table dump goes to stdout, where the bench output lives.
      lock_registry::instance().print_top(10);
    }
    if (do_panic) {
      panic("watchdog: " + std::string(to_string(k)) + " stall on '" +
            (rname != nullptr ? rname : "?") + "' exceeded deadline");
    }
  }

  void scan(std::map<int, std::uint64_t>& reported) {
    using watchdog_detail::g_stalls;
    const std::uint64_t now = now_nanos();
    for (int i = 0; i < watchdog_detail::k_stall_slots; ++i) {
      auto& s = g_stalls[i];
      const std::uint64_t q1 = s.seq.load(std::memory_order_acquire);
      if (q1 & 1) continue;  // owner mid-write
      const auto k = static_cast<stall_kind>(s.kind.load(std::memory_order_relaxed));
      if (k == stall_kind::none) {
        reported.erase(i);
        continue;
      }
      const void* resource = s.resource.load(std::memory_order_relaxed);
      const char* rname = s.rname.load(std::memory_order_relaxed);
      const std::uint64_t since = s.since.load(std::memory_order_relaxed);
      const void* thread = s.thread.load(std::memory_order_relaxed);
      const std::uint64_t span = s.span.load(std::memory_order_relaxed);
      if (s.seq.load(std::memory_order_acquire) != q1) continue;  // torn read
      const std::uint64_t deadline = deadline_nanos(k);
      if (now - since < deadline) continue;
      auto it = reported.find(i);
      if (it != reported.end() && it->second == since) continue;  // already tripped
      reported[i] = since;
      trip(k, thread, resource, rname, now - since, deadline, span);
    }
  }

  void loop() {
    std::map<int, std::uint64_t> reported;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(cfg.poll);
      scan(reported);
    }
  }
};

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
  std::lock_guard<std::mutex> g(s.m);
  if (s.running) return;
  s.cfg = cfg;
  s.stop.store(false);
  watchdog_detail::g_armed.store(true, std::memory_order_relaxed);
  s.thread = std::thread([&s] { s.loop(); });
  s.running = true;
}

void watchdog::stop() {
  impl& s = self();
  {
    std::lock_guard<std::mutex> g(s.m);
    if (!s.running) return;
    watchdog_detail::g_armed.store(false, std::memory_order_relaxed);
    s.stop.store(true);
  }
  s.thread.join();
  std::lock_guard<std::mutex> g(s.m);
  s.running = false;
}

bool watchdog::running() const noexcept {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return s.running;
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
