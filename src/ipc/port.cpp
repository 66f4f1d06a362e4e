#include "ipc/port.h"

#include "metrics/kmetrics.h"
#include "sched/event.h"
#include "trace/kspan.h"

namespace mach {

namespace {

// kspan-enabled slow path: stamp the sender's active context into the
// message (a pre-stamped context — e.g. a forwarded request — wins) and
// record the enqueue time so the dequeue side can attribute queue wait.
void span_stamp_send(message& m, const port& p) {
  if (m.span_ctx == 0) m.span_ctx = kspan::current();
  if (m.span_ctx == 0) return;
  m.span_sent_nanos = now_nanos();
  ktrace::emit(trace_kind::span_send, p.type_name(), m.span_ctx,
               reinterpret_cast<std::uint64_t>(&p));
}

// Dequeue half: emit the flow-step record and feed the queue-wait
// histogram. Runs outside the port lock.
void span_note_recv(const message& m, const port& p) {
  if (m.span_ctx == 0 || !kspan::enabled()) return;
  const std::uint64_t now = now_nanos();
  const std::uint64_t waited =
      m.span_sent_nanos != 0 && now > m.span_sent_nanos ? now - m.span_sent_nanos : 0;
  ktrace::emit(trace_kind::span_recv, p.type_name(), m.span_ctx, waited);
  kmet().span_queue_nanos.record(waited);
}

}  // namespace

const char* to_string(kern_return_t kr) noexcept {
  switch (kr) {
    case KERN_SUCCESS: return "KERN_SUCCESS";
    case KERN_FAILURE: return "KERN_FAILURE";
    case KERN_INVALID_NAME: return "KERN_INVALID_NAME";
    case KERN_TERMINATED: return "KERN_TERMINATED";
    case KERN_INVALID_OP: return "KERN_INVALID_OP";
    case KERN_NO_SPACE: return "KERN_NO_SPACE";
    case KERN_RESOURCE_SHORTAGE: return "KERN_RESOURCE_SHORTAGE";
    case KERN_TIMED_OUT: return "KERN_TIMED_OUT";
    case KERN_ABORTED: return "KERN_ABORTED";
  }
  return "KERN_?";
}

message_body::value_type* message_body::grow(size_type need) {
  MACH_ASSERT(need <= UINT32_MAX, "message body longer than 2^32 words");
  const size_type cap = std::clamp<size_type>(2 * static_cast<size_type>(cap_), need, UINT32_MAX);
  auto* block = new value_type[cap];
  if (size_ != 0) std::memcpy(block, data(), size_ * sizeof(value_type));
  free_heap();
  heap_ = block;
  cap_ = static_cast<std::uint32_t>(cap);
  return block;
}

port::port(const char* name) : kobject(name) {}

port::~port() = default;

void port::set_translation(ref_ptr<kobject> obj) {
  // Drop the old reference outside the port lock (release may destroy).
  ref_ptr<kobject> old;
  lock();
  old = std::move(translation_);
  translation_ = std::move(obj);
  unlock();
}

ref_ptr<kobject> port::translate() {
  lock();
  if (!active() || !translation_) {
    unlock();
    return {};
  }
  // Cloning under the port lock is safe: acquiring a reference never
  // blocks (paper section 8).
  ref_ptr<kobject> r = translation_;
  unlock();
  return r;
}

ref_ptr<kobject> port::clear_translation() {
  lock();
  ref_ptr<kobject> r = std::move(translation_);
  unlock();
  return r;
}

bool port::has_translation() {
  lock();
  bool h = static_cast<bool>(translation_);
  unlock();
  return h;
}

kern_return_t port::send(message m) {
  lock();
  if (!active()) {
    unlock();
    sends_failed_.fetch_add(1, std::memory_order_relaxed);
    return KERN_TERMINATED;
  }
  if (queue_.size() >= queue_limit_) {
    unlock();
    sends_failed_.fetch_add(1, std::memory_order_relaxed);
    return KERN_NO_SPACE;
  }
  if (kspan::enabled()) [[unlikely]] span_stamp_send(m, *this);
  queue_.push_back(std::move(m));
  const bool wake = waiters_ != 0;
  unlock();
  sends_ok_.fetch_add(1, std::memory_order_relaxed);
  kmet().ipc_messages.inc();
  if (wake) thread_wakeup_one(&queue_);
  return KERN_SUCCESS;
}

std::optional<message> port::receive(std::chrono::milliseconds timeout) {
  const bool bounded = timeout != std::chrono::milliseconds::max();
  lock();
  for (;;) {
    if (!queue_.empty()) {
      message m = std::move(queue_.front());
      queue_.pop_front();
      unlock();
      span_note_recv(m, *this);
      return m;
    }
    if (!active()) {
      unlock();
      return std::nullopt;
    }
    // assert_wait-then-unlock: atomic with respect to send()'s wakeup.
    // Counting ourselves in the same hold makes every send from here on
    // issue that wakeup.
    ++waiters_;
    assert_wait(&queue_);
    unlock();
    wait_result r = bounded ? thread_block_timeout(timeout) : thread_block();
    lock();
    --waiters_;
    if (r == wait_result::timed_out) {
      // A send can land between the timeout firing and this return: the
      // sender's thread_wakeup_one finds no waiter (we already left the
      // wait queue), so nothing re-delivers the message until the next
      // receive — for a single-receiver pattern (an RPC reply port) that
      // message would be silently delayed and mis-delivered to the NEXT
      // call. Drain once before giving up.
      if (!queue_.empty()) {
        message m = std::move(queue_.front());
        queue_.pop_front();
        // If more messages slipped in, their wakeups may also have been
        // consumed against no waiter; re-signal so a blocked receiver
        // (if any is still counted) picks them up instead of stranding
        // them.
        const bool more = !queue_.empty() && waiters_ != 0;
        unlock();
        if (more) thread_wakeup_one(&queue_);
        span_note_recv(m, *this);
        return m;
      }
      unlock();
      return std::nullopt;
    }
  }
}

std::optional<message> port::try_receive() {
  lock();
  if (queue_.empty()) {
    unlock();
    return std::nullopt;
  }
  message m = std::move(queue_.front());
  queue_.pop_front();
  unlock();
  span_note_recv(m, *this);
  return m;
}

void port::destroy_port() {
  std::deque<message> drained;
  lock();
  // Deactivate and drain under ONE lock hold. Deactivating after the
  // drain (the old order) left a window where a concurrent send could
  // pass the active() check and enqueue between the two, leaking the
  // message (and any port references it carries) until the port itself
  // died. With the flag flipped first, every send that succeeded is in
  // the queue we drain, and every later send fails KERN_TERMINATED.
  deactivate_locked();
  drained.swap(queue_);
  unlock();
  // Dropped messages release their carried port references here, outside
  // any lock.
  drained.clear();
  // Blocked receivers re-check active() and leave.
  thread_wakeup(&queue_);
}

std::size_t port::queued() {
  lock();
  std::size_t n = queue_.size();
  unlock();
  return n;
}

void port::set_queue_limit(std::size_t limit) {
  lock();
  queue_limit_ = limit;
  unlock();
}

}  // namespace mach
