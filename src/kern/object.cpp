#include "kern/object.h"

#include "metrics/kmetrics.h"
#include "sync/deadlock.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

std::atomic<std::uint64_t> g_live_objects{0};

}  // namespace

kobject::kobject(const char* type_name, refcount_policy ref_policy)
    : lock_(type_name), ref_(ref_policy, 1), type_name_(type_name) {
  g_live_objects.fetch_add(1, std::memory_order_relaxed);
}

kobject::~kobject() { g_live_objects.fetch_sub(1, std::memory_order_relaxed); }

void kobject::ref_clone() {
  kmet().kern_ref_takes.inc();
  // The policy asserts clone-from-dead and emits ref_take (with this
  // object's type as the trace name, carrying the active kspan context).
  ref_.acquire(type_name_);
}

void kobject::ref_clone_locked() {
  MACH_ASSERT(locked_by_me(), "ref_clone_locked without the object lock");
  kmet().kern_ref_takes.inc();
  ref_.acquire(type_name_);
}

void kobject::ref_release() {
  // "Releasing a reference ... may perform other operations that can
  // block. Thus it may not be done while holding any non-sleep locks, nor
  // between an assert_wait() and the corresponding thread_block()."
  // We cannot see an unpaired assert_wait from here (thread_block's own
  // assert covers it), but the lock rule is checkable:
  kmet().kern_ref_releases.inc();
  bool last = ref_.release(type_name_);
  if (last) {
    MACH_ASSERT(held_tracked_simple_locks() == 0,
                std::string("last reference to ") + type_name_ +
                    " released while holding a simple lock (destruction may block)");
    on_last_reference();
    delete this;
  }
}

bool kobject::deactivate() {
  lock();
  bool did = deactivate_locked();
  unlock();
  return did;
}

bool kobject::deactivate_locked() {
  MACH_ASSERT(locked_by_me(), "deactivate_locked without the object lock");
  bool did = active_;
  active_ = false;
  if (did) kmet().kern_deactivations.inc();
  ktrace::emit(trace_kind::ref_deactivate, type_name_, reinterpret_cast<std::uint64_t>(this),
               did ? 1 : 0);
  return did;
}

std::uint64_t kobject::live_objects() { return g_live_objects.load(std::memory_order_relaxed); }

}  // namespace mach
