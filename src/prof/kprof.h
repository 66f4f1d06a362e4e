// kprof — statistical sampling profiler with lock-state attribution.
//
// The event-based stack (ktrace timelines, lockstat counters, kmon rates,
// kspan critical paths) can say a lock was acquired ten million times; it
// cannot say, statistically, what every kernel thread was doing at any
// wall-clock instant. kprof supplies that missing modality with the
// classic two halves of a sampling profiler:
//
//   * every kthread PUBLISHES a single 64-bit *activity word* — {state,
//     subject, request flag} packed into one atomic slot — with plain
//     relaxed stores at the wait/hold transitions that already exist
//     (simple-lock slow path, complex-lock wait/acquire/release,
//     thread_block suspension). The lock probe (sync/lock_probe.h)
//     publishes while the sampler runs or the watchdog is armed (its trip
//     reports quote the word); otherwise those transitions store nothing
//     (see docs/OBSERVABILITY.md for measured numbers);
//   * the SAMPLER's thread, the process's one monitor thread, walks the
//     slot table at a configured rate, accumulating weighted samples into
//     per-(state, site) profiles, and keeps a *flight recorder* ring of
//     periodic kmon counter/gauge snapshots so counter behavior over the
//     course of a run — not just its end-of-run total — is visible. The
//     same thread runs the watchdog's deadline scan (metrics/watchdog.h),
//     and the ring's span is the metrics export's rate window.
//
// Activity states:
//   running      — on CPU (or at least not inside an instrumented wait);
//   spinning     — simple-lock contended slow path; subject = lock name;
//   lock_waiting — complex-lock wait loop (sleep or spin); subject = name;
//   holding      — holding a complex lock (read or write side); subject =
//                  lock name. Simple-lock holds are NOT published: they are
//                  nanosecond-scale, invisible at sampling rates, and
//                  publishing them would put stores on the uncontended
//                  fast path (the paper's cardinal sin);
//   blocked      — suspended in thread_block; subject = event address,
//                  exported as "event:0x...".
//
// Word layout: [63:56] state, [55] request flag (a kspan context was
// active when published), [54:0] subject. Lock-state subjects are static
// name pointers (the ktrace contract: lock names are string literals);
// blocked subjects are event addresses. Last-write-wins, no stack: a
// thread holding two locks reports the most recent transition, which is
// the usual statistical-profiler trade.
//
// Enable the sampler via MACHLOCK_PROF=<file|1> (+ MACHLOCK_PROF_HZ,
// MACHLOCK_PROF_FLIGHT_MS) through trace_session, or programmatically with
// kprof::sampler::instance().start(). tools/prof_report renders the
// exported JSON as folded stacks (flamegraph input), a contention top
// table, and the schema-stamped flight-recorder JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/compiler.h"
#include "metrics/kmon.h"
#include "trace/kspan.h"

namespace mach::kprof {

enum class activity : std::uint8_t {
  running = 0,   // word 0: a claimed slot that never published a wait
  spinning,      // simple-lock slow path
  lock_waiting,  // complex-lock wait loop
  holding,       // complex-lock hold (read or write side)
  blocked,       // suspended in thread_block
};
const char* to_string(activity a) noexcept;

// Packed activity word; see layout in the header comment.
using activity_word = std::uint64_t;

inline constexpr std::uint64_t k_subject_mask = (std::uint64_t{1} << 55) - 1;
inline constexpr std::uint64_t k_request_bit = std::uint64_t{1} << 55;

inline activity_word pack(activity a, const void* subject, bool request) noexcept {
  return (static_cast<activity_word>(a) << 56) | (request ? k_request_bit : 0) |
         (reinterpret_cast<std::uintptr_t>(subject) & k_subject_mask);
}

inline activity unpack_state(activity_word w) noexcept {
  return static_cast<activity>(w >> 56);
}
inline bool unpack_request(activity_word w) noexcept { return (w & k_request_bit) != 0; }
inline std::uint64_t unpack_subject(activity_word w) noexcept { return w & k_subject_mask; }

namespace detail {

// One thread's published slot. The owner writes `word` with plain relaxed
// stores; the sampler reads all slots racily — a torn observation is
// impossible (single 64-bit atomic) and a stale one is just the previous
// instant's truth. The stall_* fields are the thread's watchdog entry
// (metrics/watchdog.cpp), which the owner publishes under a seqlock:
// stall_seq is odd while it writes.
struct alignas(cacheline_size) activity_slot {
  std::atomic<const void*> token{nullptr};  // owner thread token; null = free
  std::atomic<activity_word> word{0};
  std::atomic<std::uint64_t> stall_seq{0};
  std::atomic<const void*> stall_resource{nullptr};
  std::atomic<const char*> stall_name{nullptr};
  std::atomic<std::uint64_t> stall_since{0};
  std::atomic<std::uint64_t> stall_span{0};  // the waiter's kspan context
  std::atomic<int> stall_kind{0};            // a stall_kind; 0 = not waiting
};
static_assert(sizeof(activity_slot) == cacheline_size);

inline constexpr int k_slots = 256;
extern activity_slot g_slots[k_slots];
extern constinit thread_local activity_slot* t_slot;

// Claim a slot for the calling thread (releasing it at thread exit) and
// return it. When the table is full the thread gets a private overflow
// slot: publishing stays cheap, the thread just goes unsampled.
activity_slot* claim_slot() noexcept;

inline activity_slot* self_slot() noexcept {
  return t_slot != nullptr ? t_slot : claim_slot();
}

}  // namespace detail

// Publish the calling thread's activity: one relaxed store (plus a
// once-per-thread slot claim). The lock probe calls it only while someone
// reads the words (see the header comment).
inline void publish(activity a, const void* subject) noexcept {
  detail::self_slot()->word.store(pack(a, subject, kspan::current() != 0),
                                  std::memory_order_relaxed);
}

// The calling thread's current packed word (0 when nothing published) /
// raw republish — the save/restore pair the nested instrumentation points
// use (a complex-lock wait that blocks through the event system restores
// the lock attribution when the inner block ends).
inline activity_word self_word() noexcept {
  detail::activity_slot* s = detail::t_slot;
  return s == nullptr ? 0 : s->word.load(std::memory_order_relaxed);
}
inline void publish_word(activity_word w) noexcept {
  detail::self_slot()->word.store(w, std::memory_order_relaxed);
}

// Decoded activity of a thread by token (for the watchdog trip reports).
// `found` is false when the thread never published. `site` resolves the
// subject the same way the exporter does (lock name / "event:0x...").
struct thread_activity {
  bool found = false;
  activity state = activity::running;
  bool request = false;
  std::string site;
};
thread_activity activity_for(const void* token) noexcept;

// --- sampler ---

// One aggregated profile cell: everything observed in `state` at `site`.
struct site_sample {
  activity state = activity::running;
  bool request = false;       // published while a kspan context was active
  std::string site;           // lock name, "event:0x...", or "" for running
  std::uint64_t count = 0;    // samples
  std::uint64_t weight_nanos = 0;  // sum of inter-tick intervals
};

// One flight-recorder entry: every kmon counter/gauge value at `nanos`,
// which counts from the first start or the last reset.
using flight_snapshot = kmon::value_snapshot;

struct profile {
  double hz = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t duration_nanos = 0;
  std::uint64_t flight_interval_nanos = 0;
  std::uint64_t flight_dropped = 0;  // snapshots evicted by the ring
  std::vector<site_sample> sites;    // sorted: weight desc, then key
  std::vector<flight_snapshot> flight;
};

inline constexpr double default_hz = 97.0;

// The monitor: one thread that runs while any of its three users is on.
// Each tick (every 1/hz; default_hz unless profiling) it samples the slot
// table if profiling is on, runs the watchdog's deadline scan if the
// watchdog is armed, and every flight interval appends a kmon snapshot to
// the flight ring if profiling or recording.
class sampler {
 public:
  static sampler& instance() noexcept;

  // Profiling: sample at `hz` (clamped to [1, 10000]) and keep the flight
  // ring every `flight_interval` (0: no ring). Idempotent: a second start
  // while running is a no-op, as is stop while stopped.
  void start(double hz = default_hz,
             std::chrono::milliseconds flight_interval = std::chrono::milliseconds(20));
  void stop();
  bool running() const noexcept;

  // The other two users. watch: every tick runs the watchdog's scan
  // (watchdog::start/stop call it). record: keep the flight ring every
  // `flight_interval` (0: no ring) for a metrics export's rates. The last
  // interval set, here or by start, is the ring's.
  void watch(bool on);
  void record(bool on, std::chrono::milliseconds flight_interval = std::chrono::milliseconds(20));

  // Aggregated profile and flight ring so far (valid while running or
  // after stop). `ticks` counts profiling ticks and `duration_nanos` adds
  // up their weights, across restarts, since the last reset.
  profile snapshot() const;
  // Drop accumulated samples and flight snapshots (between bench rounds).
  void reset();

 private:
  sampler() = default;
  struct impl;
  impl& self() const;
};

// Schema-stamped JSON export ("machlock-kprof-v1") of a profile; see
// tools/prof_report for the consumers. export_file snapshots the global
// sampler and writes `path`, returning false on I/O failure.
std::string export_json(const profile& p);
bool export_file(const std::string& path);

}  // namespace mach::kprof
