#include "sched/kthread.h"

#include <future>
#include <thread>

#include "base/panic.h"
#include "metrics/kmetrics.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"

namespace mach {
namespace {

thread_local kthread* tl_current = nullptr;

}  // namespace

kthread::kthread(std::string name) : name_(std::move(name)) {}

kthread::~kthread() {
  MACH_ASSERT(!host_.joinable(), "kthread '" + name_ + "' destroyed without join");
  while (notifying_.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  if (tl_current == this) tl_current = nullptr;
}

kthread& kthread::current() {
  if (tl_current != nullptr) return *tl_current;
  // Adopt the host thread (e.g. main). The adopted wrapper lives for the
  // host thread's lifetime.
  thread_local std::unique_ptr<kthread> adopted;
  adopted.reset(new kthread("adopted"));
  adopted->token_ = current_thread_token();
  tl_current = adopted.get();
  lock_probe::thread_started();
  return *tl_current;
}

std::unique_ptr<kthread> kthread::spawn(std::string name, std::function<void()> fn) {
  std::unique_ptr<kthread> t(new kthread(std::move(name)));
  kthread* raw = t.get();
  std::promise<void> started;
  std::future<void> started_f = started.get_future();
  raw->host_ = std::thread([raw, fn = std::move(fn), &started]() mutable {
    raw->token_ = current_thread_token();
    tl_current = raw;
    lock_probe::thread_started(raw->name_);
    kmet().sched_threads_live.add(1);
    started.set_value();
    fn();
    kmet().sched_threads_live.sub(1);
    tl_current = nullptr;
  });
  started_f.wait();  // token_ is valid once we return
  return t;
}

void kthread::join() {
  MACH_ASSERT(host_.joinable(), "join of non-spawned or already-joined kthread '" + name_ + "'");
  host_.join();
}

}  // namespace mach
