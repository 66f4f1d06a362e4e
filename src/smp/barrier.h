// Barrier synchronization at interrupt level (paper section 7).
//
// "all involved processors must enter the interrupt service routine before
// any can leave" — the structure TLB shootdown needs, and the one that
// deadlocks when interrupt protection is inconsistent. A round works as in
// the paper's description of [2]:
//
//   1. the initiator serializes against other initiators, arms the round,
//      and posts the barrier IPI to every participant CPU;
//   2. each participant, upon *accepting* the interrupt (which requires its
//      spl to be below the barrier vector's level), enters the ISR, signals
//      entry, and spins at interrupt level until the initiator releases;
//   3. once every participant has entered, the initiator performs the
//      critical update (e.g. changing a page table entry) and releases;
//   4. each participant runs the on_interrupt action (e.g. processing its
//      posted TLB invalidations) and leaves the ISR.
//
// A participant that never accepts the interrupt (spinning on a lock with
// interrupts disabled — the section 7 scenario) stalls the whole round:
// the initiator's wait is visible to the deadlock detector through
// barrier-entry resources attributed to the bound thread of each missing
// CPU, so experiment E10 can *name* the three-party cycle. Rounds also
// carry a timeout so a deadlocked round terminates instead of hanging.
//
// The paper actively discourages this construct ("a costly operation");
// E10 quantifies that cost as a function of participant count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "smp/processor.h"
#include "sync/lock_probe.h"
#include "sync/simple_lock.h"

namespace mach {

class interrupt_barrier {
 public:
  explicit interrupt_barrier(const char* name = "intr-barrier");

  // Register this barrier's IPI vector; call once after machine::configure.
  // `on_interrupt` (optional) runs on every accepting CPU after the barrier
  // part of the ISR — including for stale IPIs delivered after a round
  // ended, which is exactly how posted-but-deferred TLB updates get
  // processed by a CPU that was excluded or late.
  void attach(spl_t level = SPLHIGH, std::function<void(virtual_cpu&)> on_interrupt = nullptr);

  int vector() const noexcept { return vector_; }
  spl_t level() const noexcept { return level_; }

  enum class status { ok, aborted, timed_out };

  // Run one round. `participant_mask` is a bitmask of CPU ids that must
  // enter (the initiator's own CPU, if present, participates implicitly —
  // it cannot take its own IPI while it spins). `update` runs once all
  // participants are in. Initiator runs with spl raised to the vector level.
  status run(std::uint32_t participant_mask, const std::function<void()>& update,
             std::chrono::milliseconds timeout = std::chrono::milliseconds(1000));

  // External escape hatch: abort the in-flight round (used after the
  // deadlock detector has reported the cycle).
  void abort_current() noexcept { aborted_.store(true); }

  std::uint64_t rounds_ok() const noexcept { return rounds_ok_.load(std::memory_order_relaxed); }
  std::uint64_t rounds_failed() const noexcept {
    return rounds_failed_.load(std::memory_order_relaxed);
  }

 private:
  void isr(virtual_cpu& cpu);

  const char* name_;
  int vector_ = -1;
  spl_t level_ = SPLHIGH;
  std::function<void(virtual_cpu&)> on_interrupt_;

  simple_lock_data_t round_lock_{"barrier-round", /*track=*/false};
  std::atomic<bool> round_active_{false};
  // Round generation: bumped at every round start. A participant that has
  // not yet observed its round's release when the NEXT round begins would
  // otherwise spin on the new round's (reset) release flag forever — at
  // interrupt level, where it cannot take the new round's IPI. A change of
  // generation implies its round already released or aborted, so it may
  // leave.
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint32_t> needed_{0};
  std::atomic<std::uint32_t> entered_{0};
  std::atomic<bool> released_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<std::uint64_t> rounds_ok_{0};
  std::atomic<std::uint64_t> rounds_failed_{0};

  // Wait-graph resource addresses: one entry obligation per CPU plus the
  // release the participants spin on.
  static constexpr int max_cpus = 32;
  char entry_slot_[max_cpus] = {};
  char release_slot_ = 0;
  probe_site entry_site(int cpu) { return {&entry_slot_[cpu], "barrier-entry"}; }
  probe_site release_site() { return {&release_slot_, "barrier-release"}; }
};

}  // namespace mach
