// Tests for the VM subsystem: memory objects (dual counts, pager ports,
// customized lock), maps, faults, and both vm_map_pageable variants —
// including the section 7.1 recursive-lock deadlock, detected and named.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "sched/kthread.h"
#include "sync/deadlock.h"
#include "tests/test_util.h"
#include "vm/vm_map.h"
#include "vm/vm_pageable.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

struct vm_fixture : ::testing::Test {
  vm_fixture() : pages("test-pages", 64) {}
  object_zone<vm_page> pages;
};

TEST_F(vm_fixture, PageRequestMakesResident) {
  auto obj = make_object<memory_object>(pages);
  vm_page* p = nullptr;
  EXPECT_EQ(obj->page_request(0, &p), KERN_SUCCESS);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->object, obj.get());
  EXPECT_EQ(obj->resident_count(), 1u);
  // Second request for the same page hits the resident copy.
  vm_page* q = nullptr;
  EXPECT_EQ(obj->page_request(0, &q), KERN_SUCCESS);
  EXPECT_EQ(p, q);
  EXPECT_EQ(obj->resident_count(), 1u);
}

TEST_F(vm_fixture, PageOffsetsRoundToPages) {
  auto obj = make_object<memory_object>(pages);
  vm_page* a = nullptr;
  vm_page* b = nullptr;
  EXPECT_EQ(obj->page_request(100, &a), KERN_SUCCESS);
  EXPECT_EQ(obj->page_request(vm_page_size - 1, &b), KERN_SUCCESS);
  EXPECT_EQ(a, b);  // same page
}

TEST_F(vm_fixture, ConcurrentFaultsOnSameOffsetPageInOnce) {
  auto obj = make_object<memory_object>(pages, 5ms);
  std::atomic<int> successes{0};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(kthread::spawn("fault" + std::to_string(i), [&] {
      vm_page* p = nullptr;
      if (obj->page_request(0, &p) == KERN_SUCCESS) successes.fetch_add(1);
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_EQ(successes.load(), 4);
  EXPECT_EQ(obj->resident_count(), 1u);
  EXPECT_EQ(pages.raw().in_use(), 1u);  // exactly one physical page used
}

TEST_F(vm_fixture, PagingCountExcludesTermination) {
  // The hybrid count of section 8: termination waits for paging to drain.
  auto obj = make_object<memory_object>(pages, 50ms);
  std::atomic<bool> fault_done{false};
  auto faulter = kthread::spawn("faulter", [&] {
    vm_page* p = nullptr;
    obj->page_request(0, &p);
    fault_done.store(true);
  });
  // Wait until the fault is inside the pager (paging count raised).
  while (obj->paging_in_progress() == 0 && !fault_done.load()) std::this_thread::yield();
  std::atomic<bool> terminated{false};
  auto terminator = kthread::spawn("terminator", [&] {
    obj->terminate();
    terminated.store(true);
  });
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(terminated.load()) << "terminate proceeded while paging in progress";
  faulter->join();
  terminator->join();
  EXPECT_TRUE(fault_done.load());
  EXPECT_TRUE(terminated.load());
}

TEST_F(vm_fixture, TerminateFreesResidentPages) {
  auto obj = make_object<memory_object>(pages);
  vm_page* p = nullptr;
  obj->page_request(0, &p);
  obj->page_request(vm_page_size, &p);
  EXPECT_EQ(pages.raw().in_use(), 2u);
  EXPECT_EQ(obj->terminate(), KERN_SUCCESS);
  EXPECT_EQ(pages.raw().in_use(), 0u);
  EXPECT_EQ(obj->terminate(), KERN_TERMINATED);  // idempotent failure
}

TEST_F(vm_fixture, PageRequestOnDeadObjectFails) {
  auto obj = make_object<memory_object>(pages);
  obj->terminate();
  vm_page* p = nullptr;
  EXPECT_EQ(obj->page_request(0, &p), KERN_TERMINATED);
}

TEST_F(vm_fixture, EvictRespectsWiring) {
  auto obj = make_object<memory_object>(pages);
  vm_page* p = nullptr;
  obj->page_request(0, &p);
  obj->wire_page(p);
  EXPECT_FALSE(obj->evict_one());  // only a wired page resident
  obj->unwire_page(p);
  EXPECT_TRUE(obj->evict_one());
  EXPECT_EQ(obj->resident_count(), 0u);
}

TEST_F(vm_fixture, PagerPortsCreatedExactlyOnce) {
  auto obj = make_object<memory_object>(pages);
  EXPECT_FALSE(obj->ports_created());
  std::atomic<int> distinct{0};
  port* seen = nullptr;
  std::vector<std::unique_ptr<kthread>> workers;
  std::atomic<port*> first{nullptr};
  for (int i = 0; i < 4; ++i) {
    workers.push_back(kthread::spawn("ports" + std::to_string(i), [&] {
      auto p = obj->pager_port();
      port* expected = nullptr;
      if (!first.compare_exchange_strong(expected, p.get()) && expected != p.get()) {
        distinct.fetch_add(1);
      }
    }));
  }
  for (auto& w : workers) w->join();
  EXPECT_EQ(distinct.load(), 0) << "pager port created more than once";
  EXPECT_TRUE(obj->ports_created());
  // All three ports exist and are distinct objects.
  EXPECT_NE(obj->pager_port().get(), obj->pager_request_port().get());
  EXPECT_NE(obj->pager_port().get(), obj->id_port().get());
  (void)seen;
}

// --- vm_map ---

TEST_F(vm_fixture, MapEnterLookupRemove) {
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t addr = 0;
  ASSERT_EQ(map->enter(obj, 0, 4 * vm_page_size, &addr), KERN_SUCCESS);
  EXPECT_EQ(map->entry_count(), 1u);
  EXPECT_EQ(obj->ref_count(), 2);  // ours + the entry's
  {
    read_lock_guard g(map->map_lock());
    vm_map_entry* e = map->lookup_locked(addr + vm_page_size);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->object.get(), obj.get());
    EXPECT_EQ(map->lookup_locked(addr + 4 * vm_page_size), nullptr);
  }
  EXPECT_EQ(map->remove(addr, 4 * vm_page_size), KERN_SUCCESS);
  EXPECT_EQ(obj->ref_count(), 1);
}

TEST_F(vm_fixture, MapRejectsUnalignedEnter) {
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t addr = 0;
  EXPECT_EQ(map->enter(obj, 0, 100, &addr), KERN_FAILURE);
  EXPECT_EQ(map->enter(obj, 3, vm_page_size, &addr), KERN_FAILURE);
  EXPECT_EQ(map->enter(obj, 0, 0, &addr), KERN_FAILURE);
}

TEST_F(vm_fixture, FaultPagesInThroughTheMap) {
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t addr = 0;
  ASSERT_EQ(map->enter(obj, 0, 2 * vm_page_size, &addr), KERN_SUCCESS);
  std::uint64_t pa = 0;
  EXPECT_EQ(vm_fault(*map, addr, &pa), KERN_SUCCESS);
  EXPECT_NE(pa, 0u);
  EXPECT_EQ(obj->resident_count(), 1u);
  // Unmapped address faults fail.
  EXPECT_EQ(vm_fault(*map, addr + 16 * vm_page_size, &pa), KERN_FAILURE);
}

TEST_F(vm_fixture, FaultHookReportsMapping) {
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t addr = 0;
  ASSERT_EQ(map->enter(obj, 0, vm_page_size, &addr), KERN_SUCCESS);
  std::uint64_t seen_va = 0, seen_pa = 0;
  map->on_mapping_installed = [&](std::uint64_t va, std::uint64_t pa) {
    seen_va = va;
    seen_pa = pa;
  };
  ASSERT_EQ(vm_fault(*map, addr, nullptr), KERN_SUCCESS);
  EXPECT_EQ(seen_va, addr);
  EXPECT_NE(seen_pa, 0u);
}

TEST_F(vm_fixture, ConcurrentReadFaultsProceedInParallel) {
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages, 20ms);
  std::uint64_t addr = 0;
  ASSERT_EQ(map->enter(obj, 0, 8 * vm_page_size, &addr), KERN_SUCCESS);
  auto start = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<kthread>> workers;
  for (int i = 0; i < 4; ++i) {
    workers.push_back(kthread::spawn(std::string("f") += std::to_string(i), [&, i] {
      EXPECT_EQ(vm_fault(*map, addr + static_cast<std::uint64_t>(i) * vm_page_size, nullptr),
                KERN_SUCCESS);
    }));
  }
  for (auto& w : workers) w->join();
  auto elapsed = std::chrono::steady_clock::now() - start;
  // Serialized faults would take >= 80ms; parallel read locks overlap the
  // 20ms pager waits.
  EXPECT_LT(elapsed, 70ms) << "read faults appear serialized";
  EXPECT_EQ(obj->resident_count(), 4u);
}

// --- vm_map_pageable (section 7.1) ---

class PageableVariantTest : public ::testing::TestWithParam<bool> {
 protected:
  kern_return_t run_pageable(vm_map& m, std::uint64_t s, std::uint64_t sz, bool wire) {
    return GetParam() ? vm_map_pageable_legacy(m, s, sz, wire)
                      : vm_map_pageable(m, s, sz, wire);
  }
};

TEST_P(PageableVariantTest, WiresAndUnwiresPages) {
  object_zone<vm_page> pages("pageable-pages", 64);
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t addr = 0;
  ASSERT_EQ(map->enter(obj, 0, 4 * vm_page_size, &addr), KERN_SUCCESS);
  ASSERT_EQ(run_pageable(*map, addr, 4 * vm_page_size, true), KERN_SUCCESS);
  EXPECT_EQ(obj->resident_count(), 4u);
  EXPECT_FALSE(obj->evict_one()) << "wired pages must not be evictable";
  ASSERT_EQ(run_pageable(*map, addr, 4 * vm_page_size, false), KERN_SUCCESS);
  EXPECT_TRUE(obj->evict_one());
}

TEST_P(PageableVariantTest, FailsOnUnmappedRange) {
  object_zone<vm_page> pages("pageable-pages2", 8);
  auto map = make_object<vm_map>();
  EXPECT_EQ(run_pageable(*map, 0x100000, vm_page_size, true), KERN_FAILURE);
}

INSTANTIATE_TEST_SUITE_P(Variants, PageableVariantTest, ::testing::Values(true, false),
                         [](const auto& info) { return info.param ? "legacy" : "rewritten"; });

// The E6 scenario as a test: under memory shortage, the legacy recursive
// path deadlocks against a same-map reclaimer (detected, then resolved by
// raising capacity); the rewritten path completes because the reclaimer
// can take the write lock.
struct pageable_deadlock_fixture : ::testing::Test {
  pageable_deadlock_fixture() : pages("shortage-pages", 6) {}

  void build_map() {
    map = make_object<vm_map>();
    cold = make_object<memory_object>(pages);
    hot = make_object<memory_object>(pages);
    ASSERT_EQ(map->enter(cold, 0, 4 * vm_page_size, &cold_addr), KERN_SUCCESS);
    ASSERT_EQ(map->enter(hot, 0, 4 * vm_page_size, &hot_addr), KERN_SUCCESS);
    // Fill the zone with cold, unwired, evictable pages: 4 of 6 slots.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(vm_fault(*map, cold_addr + static_cast<std::uint64_t>(i) * vm_page_size, nullptr),
                KERN_SUCCESS);
    }
    ASSERT_EQ(pages.raw().in_use(), 4u);
  }

  object_zone<vm_page> pages;
  ref_ptr<vm_map> map;
  ref_ptr<memory_object> cold, hot;
  std::uint64_t cold_addr = 0, hot_addr = 0;
};

TEST_F(pageable_deadlock_fixture, LegacyRecursivePathDeadlocks) {
  deadlock_tracing_scope tracing;
  build_map();
  // Wiring 4 hot pages needs 4 free slots; only 2 exist. The wiring thread
  // will block inside a fault holding the recursive read lock.
  std::atomic<bool> wire_done{false};
  auto wirer = kthread::spawn("vm_map_pageable", [&] {
    EXPECT_EQ(vm_map_pageable_legacy(*map, hot_addr, 4 * vm_page_size, true), KERN_SUCCESS);
    wire_done.store(true);
  });
  // Start the reclaimer only once the wirer has used the 2 free slots, so
  // it holds the recursive read lock; a reclaimer that ran first would
  // evict the cold pages and leave no shortage to deadlock on.
  while (pages.raw().in_use() < 6) std::this_thread::sleep_for(1ms);
  // The reclaimer needs the map write lock to evict cold pages — and
  // cannot get it: the deadlock of section 7.1.
  std::atomic<bool> reclaim_done{false};
  auto reclaimer = kthread::spawn("reclaimer", [&] {
    vm_map_reclaim(*map, pages.raw(), 4);
    reclaim_done.store(true);
  });
  auto cycle = wait_graph::instance().wait_for_cycle(5000);
  ASSERT_TRUE(cycle.has_value()) << "expected the sec. 7.1 deadlock cycle";
  EXPECT_FALSE(wire_done.load());
  EXPECT_FALSE(reclaim_done.load());
  // Operator intervention: add physical memory. The wiring completes, the
  // reclaimer gets its write lock, everything drains.
  pages.raw().set_max(16);
  wirer->join();
  reclaimer->join();
  EXPECT_TRUE(wire_done.load());
  EXPECT_TRUE(reclaim_done.load());
}

TEST_F(pageable_deadlock_fixture, RewrittenPathSurvivesShortage) {
  deadlock_tracing_scope tracing;
  build_map();
  std::atomic<bool> wire_done{false};
  auto wirer = kthread::spawn("vm_map_pageable", [&] {
    EXPECT_EQ(vm_map_pageable(*map, hot_addr, 4 * vm_page_size, true), KERN_SUCCESS);
    wire_done.store(true);
  });
  // Give the wirer time to hit the shortage, then reclaim: the write lock
  // is obtainable because the rewritten path dropped the map lock.
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(vm_map_reclaim(*map, pages.raw(), 4), KERN_SUCCESS);
  wirer->join();
  EXPECT_TRUE(wire_done.load());
  EXPECT_FALSE(wait_graph::instance().find_cycle().has_value());
}

// --- page contents and the backing store ---

TEST_F(vm_fixture, FirstTouchPagesAreZeroFilled) {
  auto obj = make_object<memory_object>(pages);
  vm_page* p = nullptr;
  ASSERT_EQ(obj->page_request(0, &p), KERN_SUCCESS);
  for (std::uint8_t byte : p->data) EXPECT_EQ(byte, 0);
}

TEST_F(vm_fixture, ContentsSurviveEvictionAndRefault) {
  auto obj = make_object<memory_object>(pages);
  vm_page* p = nullptr;
  ASSERT_EQ(obj->page_request(0, &p), KERN_SUCCESS);
  for (std::size_t i = 0; i < vm_page_data_size; ++i) {
    p->data[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  std::uint64_t pa_before = p->pa();
  ASSERT_TRUE(obj->evict_one());  // pages out to the backing store
  EXPECT_EQ(obj->resident_count(), 0u);
  EXPECT_EQ(obj->backing_count(), 1u);
  vm_page* q = nullptr;
  ASSERT_EQ(obj->page_request(0, &q), KERN_SUCCESS);  // pages back in
  EXPECT_EQ(obj->backing_count(), 0u);
  for (std::size_t i = 0; i < vm_page_data_size; ++i) {
    EXPECT_EQ(q->data[i], static_cast<std::uint8_t>(i * 3 + 1)) << "byte " << i;
  }
  (void)pa_before;  // the physical frame may differ; the contents must not
}

TEST_F(vm_fixture, DistinctPagesKeepDistinctContents) {
  auto obj = make_object<memory_object>(pages);
  for (int n = 0; n < 4; ++n) {
    vm_page* p = nullptr;
    ASSERT_EQ(obj->page_request(static_cast<std::uint64_t>(n) * vm_page_size, &p), KERN_SUCCESS);
    p->data[0] = static_cast<std::uint8_t>(0xA0 + n);
  }
  while (obj->evict_one()) {
  }
  EXPECT_EQ(obj->backing_count(), 4u);
  for (int n = 0; n < 4; ++n) {
    vm_page* p = nullptr;
    ASSERT_EQ(obj->page_request(static_cast<std::uint64_t>(n) * vm_page_size, &p), KERN_SUCCESS);
    EXPECT_EQ(p->data[0], static_cast<std::uint8_t>(0xA0 + n)) << "page " << n;
  }
}

TEST_F(vm_fixture, ReclaimPreservesContentsAcrossMaps) {
  // End to end: write through a map's fault path, have vm_map_reclaim
  // evict everything, refault, and find the data intact.
  auto map = make_object<vm_map>();
  auto obj = make_object<memory_object>(pages);
  std::uint64_t base = 0;
  ASSERT_EQ(map->enter(obj, 0, 2 * vm_page_size, &base), KERN_SUCCESS);
  for (int n = 0; n < 2; ++n) {
    std::uint64_t va = base + static_cast<std::uint64_t>(n) * vm_page_size;
    ASSERT_EQ(vm_fault(*map, va, nullptr), KERN_SUCCESS);
    obj->lock();
    vm_page* p = obj->page_lookup_locked(static_cast<std::uint64_t>(n) * vm_page_size);
    ASSERT_NE(p, nullptr);
    p->data[7] = static_cast<std::uint8_t>(n + 1);
    obj->unlock();
  }
  ASSERT_EQ(vm_map_reclaim(*map, pages.raw(), 2), KERN_SUCCESS);
  EXPECT_EQ(obj->resident_count(), 0u);
  for (int n = 0; n < 2; ++n) {
    std::uint64_t va = base + static_cast<std::uint64_t>(n) * vm_page_size;
    ASSERT_EQ(vm_fault(*map, va, nullptr), KERN_SUCCESS);
    obj->lock();
    vm_page* p = obj->page_lookup_locked(static_cast<std::uint64_t>(n) * vm_page_size);
    EXPECT_EQ(p->data[7], static_cast<std::uint8_t>(n + 1));
    obj->unlock();
  }
}

}  // namespace
}  // namespace mach
