// lock_probe — the one place locks and waits report to the instruments.
//
// Appendix A's simple lock is "part of a structure to allow the simple
// addition of debugging and statistics information". Those additions hang
// off every lock and wait through this probe: each wait and hold is
// reported here with a probe_kind, and the kind alone decides which of the
// five instruments hears it — ktrace (spans and the lockstat profiles they
// feed), kspan (span_blocked_on notes), the wait graph, the watchdog and
// kprof (activity words). Each instrument's switch is its bit in
// probe_mask, so a lock operation with every instrument off pays one
// relaxed load. An end hook reaches every instrument that heard its begin,
// even one gone off since, so no stall entry, timed hold or activity word
// outlives its wait or hold.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "base/compiler.h"

namespace mach {

struct lock_stat_class;

enum probe_bit : unsigned {
  probe_ktrace = 1u << 0,
  probe_kspan = 1u << 1,
  probe_wait_graph = 1u << 2,
  probe_watchdog = 1u << 3,
  probe_kprof = 1u << 4,  // the kprof sampler runs
};
inline constexpr unsigned probe_all = (probe_kprof << 1) - 1;

// Every lock operation reads the mask, so it owns its cache line: a
// counter written beside it would turn each read into a miss.
struct alignas(cacheline_size) probe_word {
  std::atomic<unsigned> bits{0};
};
inline constinit probe_word probe_mask;

inline bool probe_on(unsigned bits) noexcept {
  return (probe_mask.bits.load(std::memory_order_relaxed) & bits) != 0;
}
inline void probe_set(unsigned bits, bool on) noexcept {
  on ? probe_mask.bits.fetch_or(bits, std::memory_order_relaxed)
     : probe_mask.bits.fetch_and(~bits, std::memory_order_relaxed);
}

enum class probe_kind : std::uint8_t {
  simple,            // a tracked simple lock
  simple_untracked,  // an untracked simple lock
  complex_read,
  complex_write,     // an upgraded hold is a write hold
  complex_upgrade,   // an upgrade draining the readers (waits only)
  zone,              // a zone's exhaustion sleep; vm_map_reclaim's pledge to refill it
  barrier,           // the interrupt barrier's entry and release obligations
  event,             // a thread suspended in thread_block
};

// Who hears a wait and a hold of each kind. A reader's wait is not a
// stall; zone and barrier edges feed only the wait graph; ktrace times no
// read hold (it is shared) and kprof no simple hold (too short to sample).
struct probe_route { unsigned wait, hold; };
inline constexpr probe_route probe_routes[] = {
    /* simple */ {probe_all, probe_ktrace | probe_wait_graph},
    /* simple_untracked */ {probe_wait_graph | probe_watchdog | probe_kprof, 0},
    /* complex_read */ {probe_all & ~probe_watchdog, probe_wait_graph | probe_kprof},
    /* complex_write */ {probe_all, probe_ktrace | probe_wait_graph | probe_kprof},
    /* complex_upgrade */ {probe_all, probe_ktrace | probe_wait_graph | probe_kprof},
    /* zone */ {probe_wait_graph, probe_wait_graph},
    /* barrier */ {probe_wait_graph, probe_wait_graph},
    /* event */ {probe_watchdog | probe_kprof, 0},
};
constexpr probe_route route(probe_kind k) noexcept { return probe_routes[static_cast<int>(k)]; }

// The lock or resource a hook reports on.
struct probe_site {
  const void* addr;
  const char* name;                     // static string, as ktrace requires
  lock_stat_class* stats = nullptr;     // profile fed by timed waits and holds
  std::uint64_t* hold_start = nullptr;  // a timed hold's start, 0 when untimed
};

// What a wait's begin tells its end.
struct wait_note {
  unsigned heard = 0;       // the instruments that heard the begin
  std::uint64_t start = 0;  // ktrace's wait start, 0 when untimed
  std::uint64_t prev = 0;   // the kprof activity word to restore
};

namespace lock_probe {
namespace detail {
// The calling thread's kprof word names a hold the probe published.
inline constinit thread_local bool t_holding = false;

wait_note wait_begin(probe_kind k, const probe_site& s, const void* thread,
                     const void* holder, unsigned heard) noexcept;
void wait_end(probe_kind k, const probe_site& s, const void* thread, const wait_note& n) noexcept;
void acquired(const probe_site& s, const void* thread, unsigned heard) noexcept;
void released(probe_kind k, const probe_site& s, const void* thread, unsigned heard) noexcept;
}  // namespace detail

// The instruments on now. kprof also listens while the watchdog is armed:
// its trip reports quote the activity words.
inline unsigned listeners() noexcept {
  const unsigned m = probe_mask.bits.load(std::memory_order_relaxed);
  return (m & probe_watchdog) != 0 ? m | probe_kprof : m;
}

// `thread` starts to wait for `s`, held by `holder` when that is known.
[[nodiscard]] inline wait_note wait_begin(probe_kind k, probe_site s, const void* thread,
                                          const void* holder = nullptr) noexcept {
  const unsigned heard = listeners() & route(k).wait;
  if (heard == 0) [[likely]] return {};
  return detail::wait_begin(k, s, thread, holder, heard);
}

inline void wait_end(probe_kind k, probe_site s, const void* thread,
                     const wait_note& n) noexcept {
  if (n.heard != 0) [[unlikely]] detail::wait_end(k, s, thread, n);
}

inline void acquired(probe_kind k, probe_site s, const void* thread) noexcept {
  const unsigned heard = listeners() & route(k).hold;
  if (heard != 0) [[unlikely]] detail::acquired(s, thread, heard);
}

inline void released(probe_kind k, probe_site s, const void* thread) noexcept {
  const unsigned hold = route(k).hold;
  unsigned heard = listeners() & hold;
  if ((hold & probe_kprof) != 0 && detail::t_holding) heard |= probe_kprof;
  if ((hold & probe_ktrace) != 0 && s.hold_start != nullptr && *s.hold_start != 0) {
    heard |= probe_ktrace;
  }
  if (heard != 0) [[unlikely]] detail::released(k, s, thread, heard);
}

// The calling thread suspends in thread_block on `event`, and resumes.
[[nodiscard]] inline wait_note block(const void* event) noexcept {
  return wait_begin(probe_kind::event, {event, "event-wait"}, nullptr);
}
inline void unblock(const wait_note& n) noexcept { wait_end(probe_kind::event, {}, nullptr, n); }

// A kthread starts: label it in the wait graph and ktrace (an empty name
// keeps the default labels) and claim its kprof slot, so the sampler sees
// it from its first tick.
void thread_started(const std::string& name = {});

}  // namespace lock_probe
}  // namespace mach
