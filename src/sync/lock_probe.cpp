#include "sync/lock_probe.h"

#include <iterator>
#include <utility>

#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sync/deadlock.h"
#include "sync/lockstat.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach::lock_probe {
namespace {

// How each instrument names a wait of each kind, in probe_kind order.
struct wait_names {
  trace_kind span;
  stall_kind stall;
  kprof::activity activity;
};
constexpr wait_names k_wait_names[] = {
    {trace_kind::simple_lock_wait, stall_kind::simple_spin, kprof::activity::spinning},
    {trace_kind::none, stall_kind::simple_spin, kprof::activity::spinning},
    {trace_kind::complex_read_wait, stall_kind::none, kprof::activity::lock_waiting},
    {trace_kind::complex_write_wait, stall_kind::writer_wait, kprof::activity::lock_waiting},
    {trace_kind::complex_upgrade_wait, stall_kind::writer_wait, kprof::activity::lock_waiting},
    {trace_kind::none, stall_kind::none, kprof::activity::running},
    {trace_kind::none, stall_kind::none, kprof::activity::running},
    {trace_kind::none, stall_kind::thread_blocked, kprof::activity::blocked},
};
static_assert(std::size(k_wait_names) == std::size(probe_routes) &&
              std::size(probe_routes) == static_cast<std::size_t>(probe_kind::event) + 1);

const wait_names& names(probe_kind k) { return k_wait_names[static_cast<int>(k)]; }

}  // namespace

namespace detail {

wait_note wait_begin(probe_kind k, const probe_site& s, const void* thread, const void* holder,
                     unsigned heard) noexcept {
  wait_note n{heard};
  if ((heard & probe_ktrace) != 0) n.start = now_nanos();
  // The active request span, if any, notes the lock and its holder.
  if ((heard & probe_kspan) != 0 && kspan::current() != 0) {
    ktrace::emit(trace_kind::span_blocked_on, s.name, reinterpret_cast<std::uint64_t>(holder),
                 reinterpret_cast<std::uint64_t>(s.addr));
  }
  if ((heard & probe_wait_graph) != 0) wait_graph::instance().thread_waits(thread, s.addr, s.name);
  if ((heard & probe_watchdog) != 0) {
    watchdog_detail::note_wait_begin(names(k).stall, s.addr, s.name);
  }
  if ((heard & probe_kprof) != 0) {
    n.prev = kprof::self_word();
    // A complex-lock wait that sleeps keeps its attribution: naming the
    // lock beats naming the lock's event address.
    if (k != probe_kind::event) {
      kprof::publish(names(k).activity, s.name);
    } else if (kprof::unpack_state(n.prev) != kprof::activity::lock_waiting) {
      kprof::publish(kprof::activity::blocked, s.addr);
    }
  }
  return n;
}

void wait_end(probe_kind k, const probe_site& s, const void* thread, const wait_note& n) noexcept {
  if ((n.heard & probe_kprof) != 0) kprof::publish_word(n.prev);
  if ((n.heard & probe_watchdog) != 0) watchdog_detail::note_wait_end();
  if ((n.heard & probe_wait_graph) != 0) wait_graph::instance().thread_wait_done(thread, s.addr);
  // Only a wait traced from start to end feeds the profile.
  if (n.start != 0 && ktrace::enabled()) {
    const std::uint64_t end = now_nanos();
    s.stats->record_wait(end - n.start);
    ktrace::emit_span(names(k).span, s.name, reinterpret_cast<std::uint64_t>(s.addr),
                      end - n.start, end);
  }
}

// kprof comes first: with only kprof listening, the hooks make no call.
void acquired(const probe_site& s, const void* thread, unsigned heard) noexcept {
  if ((heard & probe_kprof) != 0) {
    kprof::publish(kprof::activity::holding, s.name);
    t_holding = true;
  }
  if ((heard & probe_wait_graph) != 0) wait_graph::instance().resource_held(s.addr, thread, s.name);
  if ((heard & probe_ktrace) != 0 && s.hold_start != nullptr) *s.hold_start = now_nanos();
}

void released(probe_kind k, const probe_site& s, const void* thread, unsigned heard) noexcept {
  if ((heard & probe_kprof) != 0) {
    kprof::publish(kprof::activity::running, nullptr);
    t_holding = false;
  }
  if ((heard & probe_wait_graph) != 0) wait_graph::instance().resource_released(s.addr, thread);
  if ((heard & probe_ktrace) != 0 && s.hold_start != nullptr && *s.hold_start != 0) {
    const std::uint64_t end = now_nanos();
    const std::uint64_t hold = end - std::exchange(*s.hold_start, 0);
    s.stats->record_hold(hold);
    ktrace::emit_span(k == probe_kind::simple ? trace_kind::simple_lock_held
                                              : trace_kind::complex_write_held,
                      s.name, reinterpret_cast<std::uint64_t>(s.addr), hold, end);
  }
}

}  // namespace detail

void thread_started(const std::string& name) {
  if (!name.empty()) {
    wait_graph::instance().name_thread(current_thread_token(), name);
    ktrace::set_thread_name(name);
  }
  kprof::detail::self_slot();
}

}  // namespace mach::lock_probe
