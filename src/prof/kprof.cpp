#include "prof/kprof.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "base/stats.h"
#include "metrics/watchdog.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"
#include "trace/trace_export.h"

namespace mach::kprof {

const char* to_string(activity a) noexcept {
  switch (a) {
    case activity::running: return "running";
    case activity::spinning: return "spinning";
    case activity::lock_waiting: return "lock-waiting";
    case activity::holding: return "holding";
    case activity::blocked: return "blocked";
  }
  return "?";
}

namespace detail {

activity_slot g_slots[k_slots];
constinit thread_local activity_slot* t_slot = nullptr;

namespace {

// Releases the slot at thread exit so the table recycles across the
// short-lived kthreads the tests and benches spawn. Word and stall entry
// are cleared before the token so neither the sampler nor the watchdog
// attributes stale state to the slot's next owner.
struct slot_owner {
  activity_slot* slot = nullptr;
  ~slot_owner() {
    if (slot == nullptr) return;
    slot->word.store(0, std::memory_order_relaxed);
    slot->stall_kind.store(0, std::memory_order_relaxed);
    slot->token.store(nullptr, std::memory_order_release);
    t_slot = nullptr;
  }
};
thread_local slot_owner t_owner;

}  // namespace

activity_slot* claim_slot() noexcept {
  const void* me = current_thread_token();
  const std::size_t h = std::hash<const void*>{}(me);
  for (int i = 0; i < k_slots; ++i) {
    const int idx = static_cast<int>((h + static_cast<std::size_t>(i)) % k_slots);
    const void* expect = nullptr;
    if (g_slots[idx].token.compare_exchange_strong(expect, me, std::memory_order_acq_rel)) {
      t_slot = &g_slots[idx];
      t_owner.slot = t_slot;
      return t_slot;
    }
  }
  // Table full: fall back to a private slot the sampler never sees, so
  // publishing stays one store instead of re-probing 256 slots each time.
  static thread_local activity_slot overflow;
  t_slot = &overflow;
  return t_slot;
}

}  // namespace detail

namespace {

// Decode a packed subject into the exporter's site string. Lock-state
// subjects are static name pointers (the ktrace lifetime contract) and are
// reconstructed directly — user-space pointers fit well inside the 55-bit
// field. Blocked subjects are event addresses, rendered as hex.
std::string resolve_site(activity state, std::uint64_t subject) {
  if (subject == 0) return {};
  if (state == activity::blocked) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "event:0x%llx", static_cast<unsigned long long>(subject));
    return buf;
  }
  return reinterpret_cast<const char*>(static_cast<std::uintptr_t>(subject));
}

}  // namespace

thread_activity activity_for(const void* token) noexcept {
  thread_activity out;
  for (int i = 0; i < detail::k_slots; ++i) {
    detail::activity_slot& s = detail::g_slots[i];
    if (s.token.load(std::memory_order_acquire) != token) continue;
    const activity_word w = s.word.load(std::memory_order_relaxed);
    out.found = true;
    out.state = unpack_state(w);
    out.request = unpack_request(w);
    out.site = resolve_site(out.state, unpack_subject(w));
    return out;
  }
  return out;
}

// --- sampler ---

namespace {

constexpr std::size_t k_flight_ring_cap = 512;

constexpr unsigned user_profile = 1, user_watchdog = 2, user_metrics = 4;

}  // namespace

struct sampler::impl {
  mutable std::mutex m;  // the profile mutex: guards everything up to `life`
  std::condition_variable wake;
  unsigned users = 0;  // user_* bits
  bool stop = false;
  double hz = default_hz;  // the profiling rate
  std::uint64_t flight_interval_nanos = 0;
  std::uint64_t next_flight = 0;
  std::uint64_t last_tick = 0;
  std::uint64_t epoch = 0;  // flight times count from here

  // Accumulated profile, keyed by packed word so the tick loop does one
  // map bump per claimed slot and all string work happens at snapshot.
  struct cell {
    std::uint64_t count = 0;
    std::uint64_t weight_nanos = 0;
  };
  std::map<activity_word, cell> agg;
  std::uint64_t ticks = 0;
  std::uint64_t duration_nanos = 0;
  std::deque<flight_snapshot> flight;
  std::uint64_t flight_dropped = 0;

  std::mutex life;     // serializes user changes: a thread launch or join
  std::thread thread;  // guarded by life

  // Turn user `u` on or off; `configure` runs under m when it turns on.
  // The first user launches the thread and the last one joins it.
  template <class F>
  void set_user(unsigned u, bool on, F&& configure) {
    std::lock_guard<std::mutex> l(life);
    bool launch = false, join = false;
    {
      std::lock_guard<std::mutex> g(m);
      if (((users & u) != 0) == on) return;
      if (on) {
        configure();
        launch = users == 0;
        users |= u;
      } else {
        users &= ~u;
        join = users == 0;
      }
      if (launch) {
        last_tick = now_nanos();
        if (epoch == 0) epoch = last_tick;
      }
      stop = join;
    }
    if (launch) thread = std::thread([this] { loop(); });
    if (join) {
      wake.notify_all();
      thread.join();
    }
  }

  void loop() {
    std::unique_lock<std::mutex> g(m);
    for (;;) {
      const double rate = (users & user_profile) != 0 ? hz : default_hz;
      if (wake.wait_for(g, std::chrono::nanoseconds(static_cast<std::uint64_t>(1e9 / rate)),
                        [this] { return stop; })) {
        return;
      }
      const std::uint64_t now = now_nanos();
      const std::uint64_t weight = now - last_tick;
      last_tick = now;
      if ((users & user_profile) != 0) {
        ++ticks;
        duration_nanos += weight;
        for (int i = 0; i < detail::k_slots; ++i) {
          detail::activity_slot& s = detail::g_slots[i];
          if (s.token.load(std::memory_order_acquire) == nullptr) continue;
          cell& c = agg[s.word.load(std::memory_order_relaxed)];
          ++c.count;
          c.weight_nanos += weight;
        }
      }
      if ((users & (user_profile | user_metrics)) != 0 && flight_interval_nanos != 0 &&
          now >= next_flight) {
        if (flight.size() >= k_flight_ring_cap) {
          flight.pop_front();
          ++flight_dropped;
        }
        flight.push_back(kmon::snapshot_values(now - epoch));
        next_flight = now + flight_interval_nanos;
      }
      if ((users & user_watchdog) != 0) {
        // A trip builds a report and may panic: not under the profile mutex.
        g.unlock();
        watchdog_detail::scan();
        g.lock();
      }
    }
  }

  // The first flight snapshot comes on the next tick.
  void set_flight_interval(std::chrono::milliseconds interval) {
    flight_interval_nanos =
        interval.count() <= 0 ? 0 : static_cast<std::uint64_t>(interval.count()) * 1'000'000;
    next_flight = 0;
  }
};

sampler& sampler::instance() noexcept {
  static sampler* s = new sampler;
  return *s;
}

sampler::impl& sampler::self() const {
  static impl* i = new impl;
  return *i;
}

void sampler::start(double hz, std::chrono::milliseconds flight_interval) {
  impl& s = self();
  s.set_user(user_profile, true, [&] {
    s.hz = std::clamp(hz, 1.0, 10000.0);
    s.set_flight_interval(flight_interval);
    s.last_tick = now_nanos();
    probe_set(probe_kprof, true);
  });
}

void sampler::stop() {
  probe_set(probe_kprof, false);
  self().set_user(user_profile, false, [] {});
}

bool sampler::running() const noexcept {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  return (s.users & user_profile) != 0;
}

void sampler::watch(bool on) { self().set_user(user_watchdog, on, [] {}); }

void sampler::record(bool on, std::chrono::milliseconds flight_interval) {
  impl& s = self();
  s.set_user(user_metrics, on, [&] { s.set_flight_interval(flight_interval); });
}

profile sampler::snapshot() const {
  impl& s = self();
  profile p;
  std::map<activity_word, impl::cell> agg;
  {
    std::lock_guard<std::mutex> g(s.m);
    p.hz = s.hz;
    p.ticks = s.ticks;
    p.duration_nanos = s.duration_nanos;
    p.flight_interval_nanos = s.flight_interval_nanos;
    p.flight_dropped = s.flight_dropped;
    p.flight.assign(s.flight.begin(), s.flight.end());
    agg = s.agg;
  }
  p.sites.reserve(agg.size());
  for (const auto& [w, c] : agg) {
    site_sample ss;
    ss.state = unpack_state(w);
    ss.request = unpack_request(w);
    ss.site = resolve_site(ss.state, unpack_subject(w));
    ss.count = c.count;
    ss.weight_nanos = c.weight_nanos;
    p.sites.push_back(std::move(ss));
  }
  std::sort(p.sites.begin(), p.sites.end(), [](const site_sample& a, const site_sample& b) {
    if (a.weight_nanos != b.weight_nanos) return a.weight_nanos > b.weight_nanos;
    if (a.state != b.state) return static_cast<int>(a.state) < static_cast<int>(b.state);
    if (a.site != b.site) return a.site < b.site;
    return a.request < b.request;
  });
  return p;
}

void sampler::reset() {
  impl& s = self();
  std::lock_guard<std::mutex> g(s.m);
  s.agg.clear();
  s.ticks = 0;
  s.duration_nanos = 0;
  s.flight.clear();
  s.flight_dropped = 0;
  s.last_tick = s.epoch = now_nanos();
  s.next_flight = 0;
}

// --- export ---

namespace {

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

std::string export_json(const profile& p) {
  std::string out = "{\"schema\":\"machlock-kprof-v1\",\"meta\":{";
  out += "\"hz\":";
  append_double(out, p.hz);
  out += ",\"ticks\":" + std::to_string(p.ticks);
  out += ",\"duration_ms\":";
  append_double(out, static_cast<double>(p.duration_nanos) / 1e6);
  out += ",\"flight_interval_ms\":";
  append_double(out, static_cast<double>(p.flight_interval_nanos) / 1e6);
  out += "},\n\"samples\":[";
  bool first = true;
  for (const site_sample& s : p.sites) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"state\":\"";
    out += to_string(s.state);
    out += "\",\"site\":\"" + json_escape(s.site) + "\"";
    out += ",\"request\":";
    out += s.request ? "true" : "false";
    out += ",\"count\":" + std::to_string(s.count);
    out += ",\"weight_ms\":";
    append_double(out, static_cast<double>(s.weight_nanos) / 1e6);
    out += "}";
  }
  out += "\n],\n\"flight\":{\"dropped\":" + std::to_string(p.flight_dropped) + ",\"snapshots\":[";
  first = true;
  for (const flight_snapshot& f : p.flight) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"t_ms\":";
    append_double(out, static_cast<double>(f.nanos) / 1e6);
    out += ",\"values\":{";
    bool vfirst = true;
    for (const auto& [name, v] : f.values) {
      if (!vfirst) out += ",";
      vfirst = false;
      out.append("\"").append(json_escape(name)).append("\":");
      append_double(out, v);
    }
    out += "}}";
  }
  out += "\n]}}\n";
  return out;
}

bool export_file(const std::string& path) {
  const std::string body = export_json(sampler::instance().snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mach::kprof
