#include "smp/barrier.h"

#include <string>
#include <thread>

#include "base/backoff.h"
#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"
#include "trace/ktrace.h"

namespace mach {

interrupt_barrier::interrupt_barrier(const char* name) : name_(name) {}

void interrupt_barrier::attach(spl_t level, std::function<void(virtual_cpu&)> on_interrupt) {
  level_ = level;
  on_interrupt_ = std::move(on_interrupt);
  vector_ = machine::instance().register_vector(name_, level,
                                                [this](virtual_cpu& c) { isr(c); });
}

void interrupt_barrier::isr(virtual_cpu& cpu) {
  const std::uint32_t bit = 1u << cpu.id();
  // Process posted work on entry: by the time the initiator's round
  // completes, every participant that entered has already applied its
  // updates (it is parked in the ISR and cannot use stale state anyway).
  if (on_interrupt_) on_interrupt_(cpu);
  if (round_active_.load() && (needed_.load() & bit) != 0 &&
      (entered_.load() & bit) == 0) {
    // Entering discharges this CPU's barrier-entry obligation. Drop it
    // from the wait graph before announcing the entry, or the detector
    // sees a false two-party cycle (initiator waits on our entry, we wait
    // on its release) until the initiator notices and untracks it.
    lock_probe::released(probe_kind::barrier, entry_site(cpu.id()), cpu.bound_token());
    entered_.fetch_or(bit);
    kmet().smp_barrier_isr_parks.inc();
    // generation_ is written before round_active_ at round start, so
    // having observed round_active_ == true we read our own round's
    // generation (or a later one, in which case our round is over).
    const std::uint64_t my_round = generation_.load();
    // Spin *inside the ISR* until the initiator releases — the barrier
    // property: nobody leaves before everybody (that must) has entered.
    const void* me = current_thread_token();
    const std::uint64_t isr_start = ktrace::enabled() ? now_nanos() : 0;
    const wait_note wait = lock_probe::wait_begin(probe_kind::barrier, release_site(), me);
    backoff bo;
    while (generation_.load() == my_round && !released_.load() && !aborted_.load()) {
      bo.pause();
    }
    lock_probe::wait_end(probe_kind::barrier, release_site(), me, wait);
    if (isr_start != 0) {
      // The time this CPU was parked at interrupt level — the per-CPU
      // cost of the paper's "costly operation".
      const std::uint64_t end = now_nanos();
      ktrace::emit_span(trace_kind::barrier_isr, name_, static_cast<std::uint64_t>(cpu.id()),
                        end - isr_start, end);
    }
    // Drain again on the way out: the initiator's update may have posted
    // more work while we were parked.
    if (on_interrupt_) on_interrupt_(cpu);
  }
}

interrupt_barrier::status interrupt_barrier::run(std::uint32_t participant_mask,
                                                 const std::function<void()>& update,
                                                 std::chrono::milliseconds timeout) {
  MACH_ASSERT(vector_ >= 0, "interrupt_barrier::run before attach");
  machine& m = machine::instance();
  const void* me = current_thread_token();

  // The initiator cannot take its own IPI while spinning at the vector's
  // level; it participates implicitly.
  virtual_cpu* self = machine::current_cpu();
  const std::uint32_t self_bit = self != nullptr ? (1u << self->id()) : 0;
  const std::uint32_t others = participant_mask & ~self_bit;

  simple_lock(&round_lock_);  // one round at a time
  const std::uint64_t round_start = ktrace::enabled() ? now_nanos() : 0;
  generation_.fetch_add(1);   // unwedges stragglers from the previous round
  entered_.store(0);
  released_.store(false);
  aborted_.store(false);
  needed_.store(others);
  round_active_.store(true);

  // Deadlock-detector bookkeeping: each missing participant's entry is a
  // resource held by whatever thread is bound to that CPU.
  lock_probe::acquired(probe_kind::barrier, release_site(), me);
  std::uint32_t tracked = 0;
  wait_note entry_waits[max_cpus];
  for (int i = 0; i < m.ncpus(); ++i) {
    const std::uint32_t bit = 1u << i;
    if ((others & bit) == 0) continue;
    const void* owner = m.cpu(i).bound_token();
    if (owner == nullptr) continue;  // unbound CPU: nothing to attribute
    lock_probe::acquired(probe_kind::barrier, entry_site(i), owner);
    entry_waits[i] = lock_probe::wait_begin(probe_kind::barrier, entry_site(i), me);
    tracked |= bit;
  }
  auto untrack = [&](std::uint32_t bits) {
    for (int i = 0; i < m.ncpus(); ++i) {
      const std::uint32_t bit = 1u << i;
      if ((bits & bit) == 0) continue;
      lock_probe::wait_end(probe_kind::barrier, entry_site(i), me, entry_waits[i]);
      lock_probe::released(probe_kind::barrier, entry_site(i), m.cpu(i).bound_token());
    }
  };

  // Post the IPIs with our own spl raised to the barrier level (the
  // paper's shootdown initiator runs the whole round at interrupt level).
  spl_guard raised(level_);
  for (int i = 0; i < m.ncpus(); ++i) {
    if ((others & (1u << i)) != 0) m.post_ipi(i, vector_);
  }

  status result = status::ok;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  backoff bo;
  std::uint32_t seen = 0;
  while ((entered_.load() & others) != others) {
    const std::uint32_t now_in = entered_.load() & others & ~seen & tracked;
    if (now_in != 0) {
      untrack(now_in);
      seen |= now_in;
    }
    if (aborted_.load()) {
      result = status::aborted;
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      aborted_.store(true);
      result = status::timed_out;
      break;
    }
    machine::interrupt_point();  // still accept higher-priority interrupts
    bo.pause();
  }
  untrack(tracked & ~seen);
  // An abort that lands before the round closes wins, even if the last
  // participant entered meanwhile: the watchdog has given up on this round.
  if (result == status::ok && aborted_.load()) result = status::aborted;

  if (result == status::ok) {
    update();
    released_.store(true);
    rounds_ok_.fetch_add(1, std::memory_order_relaxed);
    kmet().smp_barrier_rounds.inc();
  } else {
    rounds_failed_.fetch_add(1, std::memory_order_relaxed);
    kmet().smp_barrier_rounds_failed.inc();
  }
  lock_probe::released(probe_kind::barrier, release_site(), me);
  round_active_.store(false);
  if (round_start != 0) {
    const std::uint64_t end = now_nanos();
    ktrace::emit_span(trace_kind::barrier_round, name_,
                      static_cast<std::uint64_t>(participant_mask), end - round_start, end);
  }
  simple_unlock(&round_lock_);

  // The initiator's own CPU processes its posted work directly.
  if (result == status::ok && self != nullptr && (participant_mask & self_bit) != 0 &&
      on_interrupt_) {
    on_interrupt_(*self);
  }
  return result;
}

}  // namespace mach
