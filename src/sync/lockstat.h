// Lock statistics, kept per lock name.
//
// Appendix A: "A simple lock is stored in a C language int variable, which
// is part of a structure to allow the simple addition of debugging and
// statistics information." This module is that addition, system-wide, in
// the Linux lock_stat shape: statistics live once per (name, kind) in a
// lock_stat_class, and each lock instance carries only a pointer to its
// class. A class covers every lock of that name, including locks that have
// since been destroyed, and is never freed. The registry walks classes and
// can snapshot acquisition / contention counts and hold/wait profiles —
// the moral equivalent of a kernel's lockstat.
//
// Counter updates cost a relaxed load and store on one cache line per
// kmon way: no read-modify-write, no extra lock. A lock's own updates are
// ordered by the lock itself (a complex lock's by its interlock), so the
// count for any one lock is exact, as are counts from threads on different
// ways; only two threads sharing a way and bumping two locks of one name at
// the same instant can lose a count, the usual trade for diagnostics.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/stats.h"
#include "metrics/kmon.h"

namespace mach {

// Statistics of every lock with one name and kind.
struct lock_stat_class {
  // The class for (name, is_complex), created on first use. Finding an
  // existing class takes no lock; creating one takes the registry's.
  static lock_stat_class* find(const char* name, bool is_complex);

  // Counter updates, made while holding the lock being counted.
  void count_acquisition() noexcept { bump(ways[kmon::detail::way_index()].acquisitions); }
  void count_contended() noexcept { bump(ways[kmon::detail::way_index()].contended); }
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Hold/wait-time profile, recorded only while ktrace is enabled (clock
  // reads are too expensive for the always-on path).
  void record_hold(std::uint64_t nanos) noexcept;
  void record_wait(std::uint64_t nanos) noexcept;

  struct alignas(cacheline_size) way {
    std::atomic<std::uint64_t> acquisitions{0};
    std::atomic<std::uint64_t> contended{0};
  };

  const std::string name;
  const bool is_complex;
  way ways[kmon::num_ways] = {};
  std::atomic_flag profile_busy = ATOMIC_FLAG_INIT;  // guards the histograms
  latency_histogram hold = {};
  latency_histogram wait = {};
  lock_stat_class* next = nullptr;  // hash-bucket chain, immutable once published
};

struct lock_stat_entry {
  const char* name;
  bool is_complex;
  std::uint64_t acquisitions;  // simple: lock+try-success; complex: read+write
  std::uint64_t contended;     // acquisitions that waited, each counted once
  // Hold/wait-time profile, populated only while ktrace is enabled.
  // Quantiles are log2-bucket upper bounds in nanoseconds; counts of 0
  // mean "never timed", not "instantaneous".
  std::uint64_t hold_samples = 0;
  std::uint64_t hold_p50_nanos = 0;
  std::uint64_t hold_p99_nanos = 0;
  std::uint64_t wait_samples = 0;
  std::uint64_t wait_p50_nanos = 0;
  std::uint64_t wait_p99_nanos = 0;
};

class lock_registry {
 public:
  // Stateless view over the lock classes, usable before and after main.
  static lock_registry& instance() noexcept;

  // Snapshot every lock class, most contended first. Order is fully
  // deterministic: contended desc, acquisitions desc, then name and
  // finally kind (simple first) as tie-breaks.
  std::vector<lock_stat_entry> snapshot() const;

  // Machine-readable snapshot: a JSON array of per-class objects, so CI
  // and scripts can consume lock stats without parsing the tools' lockstat
  // table (harness/top_tables.h). The "hold"/"wait" quantile objects are
  // OMITTED for a class whose profile never sampled (profiling is
  // ktrace-gated), matching the table's "-" cells — absent means "not
  // measured", never "measured 0". The tools' trace_session emits this on
  // exit when MACHLOCK_LOCKSTAT=json.
  std::string snapshot_json() const;

 private:
  lock_registry() = default;
};

}  // namespace mach
