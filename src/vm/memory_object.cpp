#include "vm/memory_object.h"

#include <thread>

#include "sched/event.h"

namespace mach {

memory_object::memory_object(object_zone<vm_page>& pages, std::chrono::microseconds pager_latency,
                             const char* name)
    : kobject(name), pages_(pages), pager_latency_(pager_latency) {}

memory_object::~memory_object() {
  // Whatever is still resident goes back to the zone (no locks needed: no
  // references exist anymore).
  for (auto& [off, page] : resident_) pages_.destroy(page);
  resident_.clear();
}

void memory_object::paging_begin_locked() {
  MACH_ASSERT(locked_by_me(), "paging_begin without the object lock");
  ++paging_in_progress_;
}

void memory_object::paging_end_locked() {
  MACH_ASSERT(locked_by_me(), "paging_end without the object lock");
  MACH_ASSERT(paging_in_progress_ > 0, "paging_end underflow");
  if (--paging_in_progress_ == 0) {
    // A terminator may be waiting for the drain.
    thread_wakeup(&paging_in_progress_);
  }
}

int memory_object::paging_in_progress() {
  lock();
  int n = paging_in_progress_;
  unlock();
  return n;
}

vm_page* memory_object::page_lookup_locked(std::uint64_t offset) {
  MACH_ASSERT(locked_by_me(), "page_lookup without the object lock");
  auto it = resident_.find(offset & ~(vm_page_size - 1));
  return it == resident_.end() ? nullptr : it->second;
}

kern_return_t memory_object::page_request(std::uint64_t offset, vm_page** out) {
  offset &= ~(vm_page_size - 1);
  lock();
  for (;;) {
    if (!active()) {  // re-checked on every relock (section 9 rule)
      unlock();
      return KERN_TERMINATED;
    }
    if (vm_page* p = page_lookup_locked(offset)) {
      *out = p;
      unlock();
      return KERN_SUCCESS;
    }
    if (!in_transit_.contains(offset)) break;
    // Another thread is paging this offset in: wait for it. The event is
    // the resident table's address; wakers are page completions.
    thread_sleep(&resident_, lock_addr());
    lock();
  }
  in_transit_[offset] = true;
  paging_begin_locked();  // operation in progress: excludes termination
  unlock();

  // --- pager interaction, no object lock held ---
  if (pager_latency_.count() > 0) std::this_thread::sleep_for(pager_latency_);
  // Allocating the resident page may block on zone exhaustion — the
  // "fault routine drops its lock to wait for memory" behaviour of
  // section 7.1 (here the object lock is already dropped; the *map* lock
  // the caller may hold is the one that matters for E6).
  vm_page* p = pages_.construct();
  p->object = this;
  p->offset = offset;

  lock();
  // "The pager supplies the data": restore paged-out contents, or leave
  // the zero-filled page for first touch.
  if (auto it = backing_.find(offset); it != backing_.end()) {
    p->data = it->second;
    backing_.erase(it);
  }
  in_transit_.erase(offset);
  if (!active()) {
    // Deactivated while we paged: undo and fail (section 9 recovery).
    paging_end_locked();
    unlock();
    pages_.destroy(p);
    thread_wakeup(&resident_);
    return KERN_ABORTED;
  }
  resident_.emplace(offset, p);
  paging_end_locked();
  *out = p;
  unlock();
  thread_wakeup(&resident_);  // co-faulters of this offset
  return KERN_SUCCESS;
}

bool memory_object::evict_one() {
  vm_page* victim = nullptr;
  lock();
  for (auto it = resident_.begin(); it != resident_.end(); ++it) {
    if (it->second->wire_count == 0) {
      victim = it->second;
      page_out_locked(victim);  // contents survive on the "disk"
      resident_.erase(it);
      break;
    }
  }
  unlock();
  if (victim == nullptr) return false;
  pages_.destroy(victim);  // wakes zone waiters
  return true;
}

void memory_object::wire_page(vm_page* p) {
  lock();
  ++p->wire_count;
  unlock();
}

void memory_object::unwire_page(vm_page* p) {
  lock();
  MACH_ASSERT(p->wire_count > 0, "unwire of unwired page");
  --p->wire_count;
  unlock();
}

std::size_t memory_object::resident_count() {
  lock();
  std::size_t n = resident_.size();
  unlock();
  return n;
}

void memory_object::page_out_locked(vm_page* p) {
  MACH_ASSERT(locked_by_me(), "page_out without the object lock");
  backing_[p->offset] = p->data;
}

std::size_t memory_object::backing_count() {
  lock();
  std::size_t n = backing_.size();
  unlock();
  return n;
}

void memory_object::free_pages_locked(bool all) {
  // Move victims out, destroy outside the lock (zone free wakes waiters —
  // cheap, but keep critical sections minimal).
  std::vector<vm_page*> victims;
  for (auto it = resident_.begin(); it != resident_.end();) {
    if (all || it->second->wire_count == 0) {
      victims.push_back(it->second);
      it = resident_.erase(it);
    } else {
      ++it;
    }
  }
  unlock();
  for (vm_page* p : victims) pages_.destroy(p);
  lock();
}

kern_return_t memory_object::terminate() {
  lock();
  if (!active()) {
    unlock();
    return KERN_TERMINATED;
  }
  // The paging count excludes termination: wait for in-flight paging
  // operations to drain. Re-check liveness after each relock.
  while (paging_in_progress_ > 0) {
    thread_sleep(&paging_in_progress_, lock_addr());
    lock();
    if (!active()) {
      unlock();
      return KERN_TERMINATED;  // someone else terminated during our wait
    }
  }
  unlock();
  deactivate();
  lock();
  free_pages_locked(/*all=*/true);
  unlock();
  return KERN_SUCCESS;
}

void memory_object::shutdown_body() { (void)terminate(); }

void memory_object::create_ports_once() {
  lock();
  for (;;) {
    if (ports_created_) {
      unlock();
      return;
    }
    if (!ports_creating_) break;
    // Another thread is creating the ports; the flags are the customized
    // lock — we wait on them because the simple lock itself cannot be
    // held across the (potentially blocking) port allocation.
    thread_sleep(&ports_creating_, lock_addr());
    lock();
  }
  ports_creating_ = true;
  unlock();

  // Port allocation, outside the simple lock (it may block in a real
  // kernel; here it allocates).
  auto pager = make_object<port>("pager-port");
  auto request = make_object<port>("pager-request-port");
  auto id = make_object<port>("object-id-port");

  lock();
  pager_port_ = std::move(pager);
  pager_request_port_ = std::move(request);
  id_port_ = std::move(id);
  ports_created_ = true;
  ports_creating_ = false;
  unlock();
  thread_wakeup(&ports_creating_);
}

ref_ptr<port> memory_object::pager_port() {
  create_ports_once();
  lock();
  ref_ptr<port> r = pager_port_;
  unlock();
  return r;
}

ref_ptr<port> memory_object::pager_request_port() {
  create_ports_once();
  lock();
  ref_ptr<port> r = pager_request_port_;
  unlock();
  return r;
}

ref_ptr<port> memory_object::id_port() {
  create_ports_once();
  lock();
  ref_ptr<port> r = id_port_;
  unlock();
  return r;
}

bool memory_object::ports_created() {
  lock();
  bool b = ports_created_;
  unlock();
  return b;
}

}  // namespace mach
