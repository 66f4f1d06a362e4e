// Ports: protected communication channels with exactly one receiver and
// one or more senders (paper section 3), and the port→object translation
// that backs every kernel operation (section 10).
//
// The port is itself a kernel object: it has a lock, a reference count and
// a deactivation flag, and it *holds one reference* to the object it
// represents ("if the abstraction is not a port, then the port data
// structure contains a pointer to the actual object"). Clearing that
// pointer — shutdown step 2 — is what disables port-to-object translation
// while outstanding references keep both data structures alive.
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "ipc/message.h"
#include "kern/object.h"

namespace mach {

// Cache-line aligned, so a port shares no line with a heap neighbour: its
// lock and reference count are the serve path's most contended words.
// Unaligned, perfbench serve-read ran ~8% slower with the 96 B mc_items
// on the same heap (4-vCPU x86-64).
class alignas(64) port final : public kobject {
 public:
  explicit port(const char* name = "port");
  ~port() override;

  // --- translation ---
  // Install/replace the represented object (consumes the passed reference).
  void set_translation(ref_ptr<kobject> obj);
  // Translate port → object, cloning a reference under the port lock
  // ("this effectively clones the object reference held by the name
  // translation data structures"). Null if translation was cleared or the
  // port is dead.
  ref_ptr<kobject> translate();
  // Shutdown step 2: "Lock the corresponding port, remove the object
  // pointer and reference from the port, and unlock the port." Returns the
  // removed reference so the caller controls when it dies.
  ref_ptr<kobject> clear_translation();
  bool has_translation();

  // --- messaging ---
  // Enqueue; fails with KERN_TERMINATED on a dead port, KERN_NO_SPACE when
  // the queue limit is reached.
  kern_return_t send(message m);
  // Blocking receive; nullopt on timeout or if the port dies while waiting.
  std::optional<message> receive(
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());
  std::optional<message> try_receive();

  // Deactivate the port: senders get KERN_TERMINATED, blocked receivers
  // wake empty-handed, queued messages are dropped (their carried
  // references released).
  void destroy_port();

  std::size_t queued();
  void set_queue_limit(std::size_t limit);

  std::uint64_t sends_ok() const { return sends_ok_.load(std::memory_order_relaxed); }
  std::uint64_t sends_failed() const { return sends_failed_.load(std::memory_order_relaxed); }

 private:
  std::deque<message> queue_;
  std::size_t queue_limit_ = 1024;
  // Receivers that asserted a wait on queue_ and have not yet re-taken the
  // port lock, woken or timed out. Guarded by the port lock. A send that
  // finds it zero skips thread_wakeup_one: any later receiver checks the
  // queue under the lock before it waits.
  std::uint32_t waiters_ = 0;
  ref_ptr<kobject> translation_;
  std::atomic<std::uint64_t> sends_ok_{0};
  std::atomic<std::uint64_t> sends_failed_{0};
};

}  // namespace mach
