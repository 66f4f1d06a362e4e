// Wait-for-graph deadlock detector.
//
// The paper's deadlock discussions (section 5 lock-ordering conventions,
// section 7's interrupt-barrier deadlock, section 7.1's recursive-lock
// deadlock in vm_map_pageable) all reduce to cycles in a graph whose nodes
// are threads and resources: a thread waits for a resource, a resource is
// held by one or more threads. This module records those edges (when
// tracing is enabled) and finds cycles on demand, so the experiments can
// *detect and report* the deadlocks the paper describes instead of hanging.
//
// Tracing is off by default. The lock probe (sync/lock_probe.h) feeds the
// edges and skips the graph while its bit in probe_mask is clear.
// Resources are keyed by address; names are for reporting only.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sync/lock_probe.h"

namespace mach {

// Stable per-thread identity usable below the scheduler layer (the
// scheduler itself uses simple locks, so lock debugging cannot depend on
// kthread). The token is the address of a thread_local object.
inline const void* current_thread_token() noexcept {
  static constinit thread_local char token = 0;
  return &token;
}

// Count of *tracked* simple locks held by the current thread; the event
// system asserts this is zero in thread_block (the paper's "may not be held
// during blocking operations" rule).
inline int& held_tracked_simple_locks() noexcept {
  static constinit thread_local int count = 0;
  return count;
}

class wait_graph {
 public:
  static wait_graph& instance() noexcept;

  // The graph's bit in probe_mask.
  void set_enabled(bool on) noexcept { probe_set(probe_wait_graph, on); }
  bool enabled() const noexcept { return probe_on(probe_wait_graph); }

  // Give the current thread a report-friendly name.
  void name_thread(const void* thread, std::string name);

  // Edge bookkeeping. All are no-ops when tracing is disabled.
  void thread_waits(const void* thread, const void* resource, const char* resource_name);
  void thread_wait_done(const void* thread, const void* resource);
  void resource_held(const void* resource, const void* thread, const char* resource_name);
  void resource_released(const void* resource, const void* thread);

  struct cycle {
    // Human-readable: "threadA -> lock L -> threadB -> ... -> threadA".
    std::string description;
    std::vector<const void*> threads;
  };

  // Search for any wait cycle; nullopt if the graph is cycle-free.
  std::optional<cycle> find_cycle() const;

  // Report-friendly label for a thread token: its name_thread name, or
  // "thread@<addr>". Works whether or not tracing is enabled.
  std::string thread_label(const void* thread) const;

  // One line per tracked resource currently recorded as held, e.g.
  // "[lock-A] held by main, worker1". Used by the watchdog trip report.
  std::vector<std::string> held_resources() const;

  // Poll for a cycle every `poll_ms` until one appears or `timeout_ms`
  // elapses. Used by experiments that construct a deadlock on purpose.
  std::optional<cycle> wait_for_cycle(int timeout_ms, int poll_ms = 1) const;

  // Drop all recorded state (between experiment rounds).
  void clear();

  struct impl;  // definition private to deadlock.cpp

 private:
  wait_graph() = default;
  impl& self() const;
};

// RAII enable/disable for tests and benches.
class deadlock_tracing_scope {
 public:
  deadlock_tracing_scope() { wait_graph::instance().set_enabled(true); }
  ~deadlock_tracing_scope() {
    wait_graph::instance().set_enabled(false);
    wait_graph::instance().clear();
  }
  deadlock_tracing_scope(const deadlock_tracing_scope&) = delete;
  deadlock_tracing_scope& operator=(const deadlock_tracing_scope&) = delete;
};

}  // namespace mach
