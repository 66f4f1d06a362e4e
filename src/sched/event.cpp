#include "sched/event.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "base/panic.h"
#include "base/stats.h"
#include "metrics/kmetrics.h"
#include "sync/lock_probe.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

// Hashed wait queues, as in Mach's sched_prim.c. Each bucket holds waiters
// for every event hashing to it; matching is by exact event.
constexpr std::size_t num_buckets = 128;

struct event_bucket {
  // Untracked: internal to the event system, never held across blocking.
  simple_lock_data_t lock{"event-bucket", /*track=*/false};
  std::vector<kthread*> waiters;
};

event_bucket& bucket_for(event_t e) {
  static std::array<event_bucket, num_buckets> table;
  return table[std::hash<const void*>{}(e) & (num_buckets - 1)];
}

// One cache line each: they are bumped from every CPU's wait and wakeup.
event_counter g_blocks_suspended;
event_counter g_blocks_short_circuited;
event_counter g_wakeups_delivered;
event_counter g_wakeups_no_waiter;

}  // namespace

// Friend of kthread: all access to its wait state funnels through here.
struct event_system {
  static void assert_wait(event_t e) {
    MACH_ASSERT(e != nullptr, "assert_wait on the null event");
    kthread& t = kthread::current();
    event_bucket& b = bucket_for(e);
    simple_lock(&b.lock);
    {
      std::lock_guard<std::mutex> g(t.wait_mutex_);
      MACH_ASSERT(!t.wait_asserted_,
                  "assert_wait by '" + t.name_ + "' while a wait is already asserted (fatal per paper sec. 8)");
      t.wait_event_ = e;
      t.wait_asserted_ = true;
      t.wakeup_pending_ = false;
    }
    b.waiters.push_back(&t);
    t.queued_ = true;
    simple_unlock(&b.lock);
    kmet().sched_wait_queue_depth.add(1);
    ktrace::emit(trace_kind::assert_wait_ev, nullptr, reinterpret_cast<std::uint64_t>(e));
  }

  // Dequeue `t` from its bucket if still queued. Returns true if this call
  // removed it (i.e. no waker got there first).
  static bool try_dequeue(kthread& t, event_t e) {
    event_bucket& b = bucket_for(e);
    simple_lock(&b.lock);
    bool removed = false;
    if (t.queued_) {
      auto it = std::find(b.waiters.begin(), b.waiters.end(), &t);
      MACH_ASSERT(it != b.waiters.end(), "queued thread missing from event bucket");
      b.waiters.erase(it);
      t.queued_ = false;
      removed = true;
    }
    simple_unlock(&b.lock);
    if (removed) kmet().sched_wait_queue_depth.sub(1);
    return removed;
  }

  static wait_result block(const std::chrono::milliseconds* timeout) {
    kthread& t = kthread::current();
    MACH_ASSERT(held_tracked_simple_locks() == 0,
                "thread_block by '" + t.name_ + "' while holding a simple lock (design requirement, paper sec. 4)");
    std::unique_lock<std::mutex> g(t.wait_mutex_);
    if (!t.wait_asserted_) {
      // Plain context switch.
      g.unlock();
      std::this_thread::yield();
      return wait_result::not_waiting;
    }
    // Trace the blocked interval (from here to wakeup consumption); a
    // short-circuited block shows as a ~0-length span, which is itself
    // informative (the paper's non-blocking context switch).
    const std::uint64_t t_block = (ktrace::enabled() || kmon::enabled()) ? now_nanos() : 0;
    const auto traced_event = reinterpret_cast<std::uint64_t>(t.wait_event_.load());
    auto traced = [&](wait_result r) {
      if (t_block != 0) {
        const std::uint64_t end = now_nanos();
        if (ktrace::enabled()) {
          ktrace::emit_span(trace_kind::thread_blocked, nullptr, traced_event, end - t_block, end);
        }
        kmet().sched_block_nanos.record(end - t_block);
      }
      // Consume the wait-for edge the waker left behind (deliver()): the
      // trace then records that THIS thread's block was ended by a wakeup
      // issued under the waker's span — the blocking-handoff half of
      // kspan's cross-thread propagation.
      if (kspan::enabled()) {
        const std::uint64_t waker = t.wake_span_ctx_.exchange(0, std::memory_order_relaxed);
        if (waker != 0 && r == wait_result::awakened) {
          ktrace::emit(trace_kind::span_unblock, nullptr, waker, traced_event);
        }
      }
      return r;
    };
    if (t.wakeup_pending_) {
      // Event occurred between assert_wait and here: non-blocking switch.
      g_blocks_short_circuited.add();
      kmet().sched_blocks_short_circuited.inc();
      return traced(consume_locked(t));
    }
    g_blocks_suspended.add();
    kmet().sched_blocks.inc();
    const event_t e = t.wait_event_;
    const wait_note note = lock_probe::block(e);
    const wait_result r = suspend(t, e, g, timeout);
    lock_probe::unblock(note);
    return traced(r);
  }

  // Sleep on `e` until a wakeup is delivered or `timeout` (when given)
  // expires. Wait mutex held on entry.
  static wait_result suspend(kthread& t, event_t e, std::unique_lock<std::mutex>& g,
                             const std::chrono::milliseconds* timeout) {
    auto woken = [&t] { return t.wakeup_pending_; };
    if (timeout != nullptr && !t.wait_cv_.wait_for(g, *timeout, woken)) {
      // Timed out: remove ourselves from the queue, racing against wakers.
      g.unlock();
      if (try_dequeue(t, e)) {
        std::lock_guard<std::mutex> g2(t.wait_mutex_);
        // A waker cannot reach us anymore; cancel the assertion.
        t.wait_asserted_ = false;
        t.wait_event_ = nullptr;
        t.wakeup_pending_ = false;
        return wait_result::timed_out;
      }
      // A waker dequeued us concurrently; its wakeup is (about to be)
      // delivered. Honor it.
      g.lock();
    }
    t.wait_cv_.wait(g, woken);
    return consume_locked(t);
  }

  static wait_result consume_locked(kthread& t) {
    t.wait_asserted_ = false;
    t.wait_event_ = nullptr;
    t.wakeup_pending_ = false;
    return t.wakeup_result_;
  }

  // Once the mutex is released the woken thread may return, exit and be
  // destroyed; `notifying_` makes its destructor wait until the notify
  // below is done with the condition variable.
  static void deliver(kthread* t, wait_result r) {
    {
      std::lock_guard<std::mutex> g(t->wait_mutex_);
      t->wakeup_pending_ = true;
      t->wakeup_result_ = r;
      if (kspan::enabled()) {
        t->wake_span_ctx_.store(kspan::current(), std::memory_order_relaxed);
      }
      t->notifying_.fetch_add(1, std::memory_order_relaxed);
    }
    t->wait_cv_.notify_all();
    t->notifying_.fetch_sub(1, std::memory_order_release);
  }

  // Wake-one delivers its single thread from `first` with no container;
  // only a wake-all that finds a second waiter allocates `rest`.
  static void wakeup(event_t e, bool one) {
    event_bucket& b = bucket_for(e);
    kthread* first = nullptr;
    std::vector<kthread*> rest;
    simple_lock(&b.lock);
    for (auto it = b.waiters.begin(); it != b.waiters.end();) {
      kthread* t = *it;
      // wait_event_ is stable while the thread is queued (see assert_wait /
      // try_dequeue): safe to read under the bucket lock.
      if (t->wait_event_ == e) {
        it = b.waiters.erase(it);
        t->queued_ = false;
        if (first == nullptr) {
          first = t;
        } else {
          rest.push_back(t);
        }
        if (one) break;
      } else {
        ++it;
      }
    }
    simple_unlock(&b.lock);
    const std::size_t woken = first == nullptr ? 0 : 1 + rest.size();
    ktrace::emit(trace_kind::thread_wakeup_ev, nullptr, reinterpret_cast<std::uint64_t>(e),
                 woken);
    if (woken == 0) {
      g_wakeups_no_waiter.add();
      kmet().sched_wakeups_no_waiter.inc();
      return;
    }
    g_wakeups_delivered.add(woken);
    kmet().sched_wakeups.inc(woken);
    kmet().sched_wait_queue_depth.sub(static_cast<std::int64_t>(woken));
    deliver(first, wait_result::awakened);
    for (kthread* t : rest) deliver(t, wait_result::awakened);
  }

  static void clear(kthread& t, wait_result r) {
    // The target can consume a wakeup and re-assert a different event while
    // we work, so verify the event under the bucket lock and retry on a
    // mismatch. A thread cycling faster than we can observe is inherently
    // unclearable (same in Mach); bound the retries.
    for (int attempt = 0; attempt < 64; ++attempt) {
      event_t e = nullptr;
      {
        std::lock_guard<std::mutex> g(t.wait_mutex_);
        if (!t.wait_asserted_ || t.wakeup_pending_) return;  // nothing to clear
        e = t.wait_event_;
      }
      event_bucket& b = bucket_for(e);
      simple_lock(&b.lock);
      if (t.queued_ && t.wait_event_ == e) {
        auto it = std::find(b.waiters.begin(), b.waiters.end(), &t);
        MACH_ASSERT(it != b.waiters.end(), "queued thread missing from event bucket");
        b.waiters.erase(it);
        t.queued_ = false;
        simple_unlock(&b.lock);
        kmet().sched_wait_queue_depth.sub(1);
        kmet().sched_wakeups.inc();
        deliver(&t, r);
        return;
      }
      bool superseded = !t.queued_;
      simple_unlock(&b.lock);
      if (superseded) return;  // a waker got there first; its wakeup stands
      std::this_thread::yield();
    }
  }
};

void assert_wait(event_t event) { event_system::assert_wait(event); }

wait_result thread_block() { return event_system::block(nullptr); }

wait_result thread_block_timeout(std::chrono::milliseconds timeout) {
  return event_system::block(&timeout);
}

void thread_wakeup(event_t event) { event_system::wakeup(event, /*one=*/false); }

void thread_wakeup_one(event_t event) { event_system::wakeup(event, /*one=*/true); }

void clear_wait(kthread& t, wait_result result) { event_system::clear(t, result); }

wait_result thread_sleep(event_t event, simple_lock_data_t* lock) {
  assert_wait(event);
  simple_unlock(lock);
  return thread_block();
}

event_system_counters event_counters() noexcept {
  return {g_blocks_suspended.value(), g_blocks_short_circuited.value(),
          g_wakeups_delivered.value(), g_wakeups_no_waiter.value()};
}

void reset_event_counters() noexcept {
  g_blocks_suspended.reset();
  g_blocks_short_circuited.reset();
  g_wakeups_delivered.reset();
  g_wakeups_no_waiter.reset();
}

}  // namespace mach
