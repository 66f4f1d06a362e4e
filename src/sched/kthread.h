// Kernel threads.
//
// The paper's coordination machinery is expressed in terms of threads of
// control inside the kernel: a thread holds locks, asserts waits, blocks,
// and can be the target of clear_wait. kthread wraps a host thread with the
// wait state the event system (sched/event.h) needs, and gives every thread
// a stable identity and name for lock debugging.
//
// Any host thread (e.g. the test main thread) is adopted lazily by
// kthread::current(); threads created with kthread::spawn() are owned and
// must be joined before destruction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace mach {

// An event is identified by an address, as in Mach (vm_offset_t event).
using event_t = const void*;

enum class wait_result {
  awakened,   // thread_wakeup on the event
  cleared,    // clear_wait aimed at this thread
  timed_out,  // extension: bounded block for watchdogs/tests
  not_waiting // thread_block without a prior assert_wait (plain yield)
};

class kthread {
 public:
  ~kthread();
  kthread(const kthread&) = delete;
  kthread& operator=(const kthread&) = delete;

  // The current thread's kthread, adopting the host thread on first use.
  static kthread& current();

  // Spawn a named kernel thread running `fn`. Join before destroying.
  static std::unique_ptr<kthread> spawn(std::string name, std::function<void()> fn);

  void join();

  const std::string& name() const noexcept { return name_; }
  // Identity token shared with the lock-debugging layer.
  const void* token() const noexcept { return token_; }

 private:
  friend struct event_system;
  explicit kthread(std::string name);

  std::string name_;
  const void* token_ = nullptr;
  std::thread host_;  // empty for adopted threads

  // --- Wait state, owned by the event system ---
  std::mutex wait_mutex_;
  std::condition_variable wait_cv_;
  // Event from assert_wait, null when not asserted. Atomic because
  // clear_wait probes it from outside the owning bucket's lock; it is
  // stable while the thread is queued.
  std::atomic<event_t> wait_event_{nullptr};
  bool wait_asserted_ = false;     // between assert_wait and thread_block completion
  bool wakeup_pending_ = false;    // event occurred since assert_wait
  wait_result wakeup_result_ = wait_result::awakened;
  // On an event bucket queue. Written under the owning bucket's lock;
  // atomic because clear_wait probes it cross-bucket.
  std::atomic<bool> queued_{false};
  // kspan wait-for edge: the waker's span context, stored by the event
  // system's wakeup delivery (under wait_mutex_) and consumed by this
  // thread when its block ends, so the trace records who unblocked whom.
  // 0 when spans are disabled or the waker carried no span.
  std::atomic<std::uint64_t> wake_span_ctx_{0};
  // Wakeup deliveries between releasing wait_mutex_ and finishing their
  // notify; the destructor waits for none to remain before destroying
  // wait_cv_.
  std::atomic<int> notifying_{0};
};

}  // namespace mach
