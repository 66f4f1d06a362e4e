#include "kern/zalloc.h"

#include <algorithm>

#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"

namespace mach {

zone::zone(const char* name, std::size_t elem_size, std::size_t max_elems)
    : name_(name),
      elem_size_(std::max(elem_size, sizeof(void*))),
      max_(max_elems),
      occupancy_("machlock_zone_in_use", "elements currently allocated from the zone",
                 [this] { return static_cast<double>(in_use()); }, "zone", name) {
  simple_lock_init(&lock_, name);
}

zone::~zone() {
  // Outstanding elements at teardown indicate a leak in the client; the
  // storage is reclaimed regardless (the zone owns it).
  MACH_ASSERT(outstanding_.empty(),
              std::string("zone '") + name_ + "' destroyed with elements outstanding");
}

void* zone::take_locked() {
  // The ceiling binds both paths: a shrunk zone must not hand out free-list
  // elements past the new capacity (they are "frames taken offline").
  if (in_use_ >= max_) return nullptr;
  if (!free_list_.empty()) {
    void* p = free_list_.back();
    free_list_.pop_back();
    ++in_use_;
    outstanding_.insert(p);
    return p;
  }
  if (in_use_ < max_) {
    storage_.push_back(std::make_unique<char[]>(elem_size_));
    void* p = storage_.back().get();
    ++in_use_;
    outstanding_.insert(p);
    return p;
  }
  return nullptr;
}

void* zone::alloc() {
  simple_lock(&lock_);
  const void* me = nullptr;  // set at the first sleep
  wait_note wait;
  for (;;) {
    if (void* p = take_locked()) {
      if (me != nullptr) {
        --sleepers_now_;
        lock_probe::wait_end(probe_kind::zone, {this, name_}, me, wait);
      }
      simple_unlock(&lock_);
      kmet().kern_zalloc_allocs.inc();
      return p;
    }
    if (me == nullptr) {
      me = current_thread_token();
      ++sleeps_;
      ++sleepers_now_;
      kmet().kern_zalloc_sleeps.inc();
      wait = lock_probe::wait_begin(probe_kind::zone, {this, name_}, me);
    }
    // The canonical release-one-lock-and-wait pattern (paper sec. 6).
    thread_sleep(this, &lock_);
    simple_lock(&lock_);
  }
}

void* zone::alloc_nowait() {
  simple_lock(&lock_);
  void* p = take_locked();
  simple_unlock(&lock_);
  if (p != nullptr) kmet().kern_zalloc_allocs.inc();
  return p;
}

void zone::free(void* p) {
  simple_lock(&lock_);
  if (outstanding_.erase(p) != 1) {
    simple_unlock(&lock_);
    panic(std::string("zone '") + name_ + "': free of element not allocated from it");
  }
  --in_use_;
  free_list_.push_back(p);
  const std::size_t sleepers = sleepers_now_;
  simple_unlock(&lock_);
  kmet().kern_zalloc_frees.inc();
  // Wakeup policy: with more than one sleeper, broadcast. A single
  // wake-one can be wasted on a sleeper that cannot proceed (its retake
  // raced a ceiling shrink or an alloc_nowait steal) and nothing would
  // re-signal the rest even though capacity exists; sleepers re-check
  // under the zone lock, so a broadcast is always safe, merely noisier —
  // and exhaustion is the rare path.
  if (sleepers > 1) {
    thread_wakeup(this);
  } else if (sleepers == 1) {
    thread_wakeup_one(this);
  }
}

void zone::set_max(std::size_t max_elems) {
  simple_lock(&lock_);
  bool grew = max_elems > max_;
  max_ = max_elems;
  simple_unlock(&lock_);
  if (grew) thread_wakeup(this);
}

std::size_t zone::in_use() const {
  simple_lock(&lock_);
  std::size_t v = in_use_;
  simple_unlock(&lock_);
  return v;
}

std::size_t zone::capacity() const {
  simple_lock(&lock_);
  std::size_t v = max_;
  simple_unlock(&lock_);
  return v;
}

std::uint64_t zone::alloc_sleeps() const {
  simple_lock(&lock_);
  std::uint64_t v = sleeps_;
  simple_unlock(&lock_);
  return v;
}

}  // namespace mach
