// lockref — a spinlock and a reference count packed into one 64-bit word,
// the Linux lib/lockref.c technique (SNIPPETS.md Snippet 1) adapted to
// this library's conventions. It is the slot word of striped_refcount
// (kern/refcount.h) and has no other user.
//
// The paper takes references under the object's simple lock (section 8).
// The lockref observation: if the lock word and the count share one 64-bit
// word, a get/put against an UNLOCKED slot can update the count with a
// single compare-exchange that simultaneously verifies the lock is free —
// the paper's locking discipline is preserved (no count ever changes while
// another CPU holds the lock) without the fast path ever touching the lock.
// striped_refcount's reconcile takes every slot lock to fold the slots into
// one total; fast paths that meet a locked slot fall back to waiting on it.
//
// Word layout:
//   bit  0      — embedded spinlock (kLockBit)
//   bit  1      — dead/retired marker (kDeadBit), sticky once set; makes
//                 clone-from-dead and over-release detectable from a
//                 single word load
//   bits 32..63 — signed 32-bit count
//
// This header is only the machine-level word: the cmpxchg step, the
// embedded spinlock, and the locked accessors. The get/put semantics
// (bounded fast-path loops, fallback conditions, panic discipline) live
// in kern/refcount.h.
//
// The embedded spinlock is deliberately NOT a simple_lock_data_t: it has
// no holder bookkeeping, no lockstat, and is never tracked — it exists so
// the fast path has something to pack next to the count, and its critical
// sections are a handful of instructions. Contended acquisition backs off
// exactly like the spin policies do (base/backoff.h).
#pragma once

#include <atomic>
#include <cstdint>

#include "base/backoff.h"
#include "base/compiler.h"

namespace mach {

class lockref64 {
 public:
  static constexpr std::uint64_t kLockBit = 1u << 0;
  static constexpr std::uint64_t kDeadBit = 1u << 1;
  // Bound on fast-path cmpxchg retries before a get/put falls back to the
  // locked path (Linux bounds the equivalent loop on some architectures to
  // avoid cmpxchg livelock against a stream of winners).
  static constexpr int kFastAttempts = 64;

  explicit lockref64(std::int32_t count = 0, std::uint64_t flags = 0) noexcept
      : word_(pack(count, flags)) {}

  lockref64(const lockref64&) = delete;
  lockref64& operator=(const lockref64&) = delete;

  static constexpr std::uint64_t pack(std::int32_t count, std::uint64_t flags = 0) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(count)) << 32) | flags;
  }
  static constexpr std::int32_t count_of(std::uint64_t word) noexcept {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(word >> 32));
  }
  static constexpr bool is_locked(std::uint64_t word) noexcept { return (word & kLockBit) != 0; }
  static constexpr bool is_dead(std::uint64_t word) noexcept { return (word & kDeadBit) != 0; }

  std::uint64_t load() const noexcept { return word_.load(std::memory_order_acquire); }

  // One fast-path step: install `desired` if the word is still `expected`.
  // On failure `expected` is reloaded (the Linux comment: "the cmpxchg
  // reloads the old value for the failure case").
  bool cas(std::uint64_t& expected, std::uint64_t desired) noexcept {
    return word_.compare_exchange_weak(expected, desired, std::memory_order_acq_rel,
                                       std::memory_order_acquire);
  }

  // --- the embedded spinlock (slow paths and reconciles) ---

  void lock() noexcept {
    backoff b;
    for (;;) {
      std::uint64_t w = word_.load(std::memory_order_relaxed);
      if (!is_locked(w) &&
          word_.compare_exchange_weak(w, w | kLockBit, std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
      b.pause();
    }
  }

  void unlock() noexcept { word_.fetch_and(~kLockBit, std::memory_order_release); }

  // --- accessors for the lock holder ---
  // While kLockBit is set every fast-path cmpxchg fails, so the holder has
  // exclusive write access to the count half; updates stay atomic RMWs only
  // so concurrent value() snapshots read a whole word.

  std::int32_t count_locked() const noexcept {
    return count_of(word_.load(std::memory_order_relaxed));
  }

  void add_locked(std::int32_t delta) noexcept {
    word_.fetch_add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(delta)) << 32,
                    std::memory_order_relaxed);
  }

  // Release the lock and publish a new count (and optional flags) in one
  // store — the reconcile path's fold step.
  void unlock_to(std::int32_t count, std::uint64_t flags = 0) noexcept {
    word_.store(pack(count, flags & ~kLockBit), std::memory_order_release);
  }

 private:
  std::atomic<std::uint64_t> word_;
};

static_assert(sizeof(lockref64) == 8, "lockref must stay one 64-bit word");

}  // namespace mach
