#include "vm/vm_pageable.h"

#include <algorithm>

#include "sync/deadlock.h"
#include "sync/lock_probe.h"

namespace mach {
namespace {

// Mark every entry overlapping [start,end) wired/unwired; the caller
// holds the map write lock. Returns false if the range is unmapped.
bool set_wired_locked(vm_map& map, std::uint64_t start, std::uint64_t end, bool wire) {
  bool any = false;
  for (std::uint64_t va = start; va < end; va += vm_page_size) {
    vm_map_entry* e = map.lookup_locked(va);
    if (e == nullptr) return false;
    e->wired = wire;
    any = true;
    va = e->end - vm_page_size;  // skip to entry end
  }
  return any;
}

// Unwire the resident pages of [start,end). Caller holds the map lock
// (read suffices: page wire counts are under the object locks).
void unwire_pages_locked(vm_map& map, std::uint64_t start, std::uint64_t end) {
  for (std::uint64_t va = start; va < end; va += vm_page_size) {
    vm_map_entry* e = map.lookup_locked(va);
    if (e == nullptr) continue;
    ref_ptr<memory_object> obj = e->object;
    std::uint64_t offset = e->offset + (va - e->start);
    obj->lock();
    vm_page* p = obj->page_lookup_locked(offset);
    obj->unlock();
    if (p != nullptr && p->wire_count > 0) obj->unwire_page(p);
  }
}

}  // namespace

kern_return_t vm_map_pageable_legacy(vm_map& map, std::uint64_t start, std::uint64_t size,
                                     bool wire) {
  const std::uint64_t end = start + size;
  lock_write(&map.map_lock());
  if (!set_wired_locked(map, start, end, wire)) {
    lock_done(&map.map_lock());
    return KERN_FAILURE;
  }
  if (!wire) {
    unwire_pages_locked(map, start, end);
    lock_done(&map.map_lock());
    return KERN_SUCCESS;
  }

  // The section 7.1 sequence: keep a recursive read hold across the
  // faults so the fault routine's own lock_read on the same map succeeds.
  lock_set_recursive(&map.map_lock());
  lock_write_to_read(&map.map_lock());

  kern_return_t kr = KERN_SUCCESS;
  for (std::uint64_t va = start; va < end && kr == KERN_SUCCESS; va += vm_page_size) {
    // vm_fault_wire's internal lock_read is a recursive acquisition;
    // any work needing the write lock must already have been done above
    // ("vm_map_pageable must perform any work that would otherwise
    // necessitate a write lock in the fault routine").
    kr = vm_fault_wire(map, va);
  }

  lock_clear_recursive(&map.map_lock());
  lock_done(&map.map_lock());
  if (kr != KERN_SUCCESS) {
    // Partial failure: undo the wiring so the range is not left pinned.
    write_lock_guard g(map.map_lock());
    set_wired_locked(map, start, end, false);
    unwire_pages_locked(map, start, end);
  }
  return kr;
}

kern_return_t vm_map_pageable(vm_map& map, std::uint64_t start, std::uint64_t size, bool wire) {
  const std::uint64_t end = start + size;
  // Pass 1: under the write lock, flip the wired flags and collect
  // object references for every page to fault.
  struct pending_fault {
    ref_ptr<memory_object> object;
    std::uint64_t offset;
  };
  std::vector<pending_fault> faults;
  {
    write_lock_guard g(map.map_lock());
    if (!set_wired_locked(map, start, end, wire)) return KERN_FAILURE;
    if (!wire) {
      unwire_pages_locked(map, start, end);
      return KERN_SUCCESS;
    }
    for (std::uint64_t va = start; va < end; va += vm_page_size) {
      vm_map_entry* e = map.lookup_locked(va);
      faults.push_back({e->object, e->offset + (va - e->start)});
    }
  }
  // Pass 2: no map lock held — a concurrent writer (e.g. vm_map_reclaim)
  // can proceed. The object references pin the data structures (section 8
  // "operations in progress").
  for (pending_fault& f : faults) {
    vm_page* p = nullptr;
    kern_return_t kr = f.object->page_request(f.offset, &p);
    if (kr != KERN_SUCCESS) {
      // Partial failure: unwire what we wired and clear the flags.
      write_lock_guard g(map.map_lock());
      set_wired_locked(map, start, end, false);
      unwire_pages_locked(map, start, end);
      return kr;
    }
    f.object->wire_page(p);
  }
  return KERN_SUCCESS;
}

kern_return_t vm_map_reclaim(vm_map& map, zone& page_zone, std::size_t target_pages) {
  const void* me = current_thread_token();
  // Announce responsibility for producing memory: the deadlock detector
  // needs the zone→reclaimer edge to close E6's cycle.
  lock_probe::acquired(probe_kind::zone, {&page_zone, page_zone.name()}, me);

  std::size_t reclaimed = 0;
  {
    write_lock_guard g(map.map_lock());
    ordered_hold order(&map.map_lock(), vm_map_lock_class);
    for (const vm_map_entry& e : map.entries_) {
      while (reclaimed < target_pages && e.object->evict_one()) ++reclaimed;
      if (reclaimed >= target_pages) break;
    }
  }

  lock_probe::released(probe_kind::zone, {&page_zone, page_zone.name()}, me);
  return reclaimed > 0 ? KERN_SUCCESS : KERN_FAILURE;
}

}  // namespace mach
