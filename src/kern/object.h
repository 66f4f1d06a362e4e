// Kernel objects: the lock / reference / deactivation discipline of paper
// sections 8–10, shared by every Mach abstraction (task, thread, port,
// memory object).
//
// Rules encoded here:
//   * an object is created with a single reference to itself (its creator's);
//   * a reference guarantees only that the DATA STRUCTURE exists — "it is
//     possible for an object to be terminated, but its data structure to
//     remain while pointers to it exist";
//   * cloning a reference locks the object and increments the count; it
//     never blocks, so it is safe while holding other locks;
//   * releasing a reference may destroy the object, which may block —
//     so it must not happen while any (tracked, non-sleep) lock is held,
//     nor between assert_wait and thread_block;
//   * deactivation (section 9) marks the object dead under its lock; any
//     operation that depends on liveness must re-check after every relock.
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "base/panic.h"
#include "kern/refcount.h"
#include "sync/simple_lock.h"

namespace mach {

class kobject {
 public:
  // `ref_policy` selects the reference-count implementation (kern/
  // refcount.h): atomic by default; long-lived objects shared across
  // threads, such as processor sets and pager-backed memory objects, pass
  // refcount_policy::striped.
  explicit kobject(const char* type_name, refcount_policy ref_policy = refcount_policy::atomic);
  virtual ~kobject();
  kobject(const kobject&) = delete;
  kobject& operator=(const kobject&) = delete;

  // --- object lock ---
  void lock() { simple_lock(&lock_); }
  void unlock() { simple_unlock(&lock_); }
  bool lock_try() { return simple_lock_try(&lock_); }
  bool locked_by_me() const { return simple_lock_held(&lock_); }
  simple_lock_data_t* lock_addr() { return &lock_; }

  // --- references (section 8) ---
  // Clone a reference the caller already (transitively) holds. Per the
  // paper, acquiring a reference requires locking the object "or the
  // portion containing its reference count"; kobject uses the
  // portion-lock form (the policy-selected count in kern/refcount.h,
  // atomic by default) so that cloning a back-pointer's reference while
  // holding another object's lock can never invert a lock order — no
  // policy's count lock is tracked or can block. (The three policies are
  // compared head-to-head in E7.)
  void ref_clone();
  // As ref_clone, for call sites already holding the object lock (kept to
  // express the paper's protocol at those sites; the count update itself
  // is the same atomic portion).
  void ref_clone_locked();
  // Release one reference. If it was the last: no pointers, no operations
  // in progress, no way to invoke new ones — destroy. Destruction may
  // block, so releasing is fatal while a tracked simple lock is held.
  void ref_release();
  // Racy snapshot for diagnostics/tests.
  int ref_count() const { return ref_.value(); }
  // Which count policy this object was built with.
  refcount_policy ref_policy() const { return ref_.policy(); }

  // --- deactivation (section 9) ---
  // Mark deactivated; idempotent; returns true if this call did it.
  bool deactivate();
  // As deactivate(), for callers already holding the object lock — lets a
  // subsystem make "deactivate + mutate other locked state" one atomic
  // critical section (e.g. port::destroy_port deactivates and drains the
  // queue under a single lock hold, closing the send-after-drain race).
  bool deactivate_locked();
  // Liveness check; only meaningful under the object lock, and must be
  // re-checked after any unlock/relock.
  bool active() const {
    MACH_ASSERT(locked_by_me(), "active() checked without holding the object lock");
    return active_;
  }
  // Unlocked peek for statistics only (never for correctness decisions).
  bool active_hint() const { return active_; }

  // Shutdown step 3 hook (paper section 10): subsystem-specific teardown of
  // a deactivated object ("Shutdown/destroy the object. Requires a lock."
  // — implementations take the object lock internally as needed).
  virtual void shutdown_body() {}

  const char* type_name() const { return type_name_; }

  // Count of live kobject instances — the use-after-free tripwire the
  // shutdown experiments (E11) assert on.
  static std::uint64_t live_objects();

 protected:
  // Hook run when the last reference dies, before deletion (e.g. return
  // memory to a zone, close ports). Runs without the object lock held.
  virtual void on_last_reference() {}

 private:
  mutable simple_lock_data_t lock_;
  // The count, under the policy chosen at construction. Every policy keeps
  // the paper's discipline observable (over-release and clone-from-dead
  // panic identically); the atomic default makes get/put one atomic RMW.
  // See kern/refcount.h for the policy catalogue.
  krefcount ref_;
  bool active_ = true;
  const char* type_name_;
};
static_assert(sizeof(kobject) <= 128, "a kernel object is its lock, its count and a few words");

// Smart pointer managing one reference to a kobject subtype.
template <typename T>
class ref_ptr {
 public:
  ref_ptr() = default;
  // Adopt an existing (e.g. creation) reference without cloning.
  static ref_ptr adopt(T* p) {
    ref_ptr r;
    r.p_ = p;
    return r;
  }
  // Clone a new reference from a raw pointer the caller keeps valid.
  static ref_ptr clone_from(T* p) {
    if (p != nullptr) p->ref_clone();
    return adopt(p);
  }

  ref_ptr(const ref_ptr& o) : p_(o.p_) {
    if (p_ != nullptr) p_->ref_clone();
  }
  ref_ptr(ref_ptr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  // Converting constructors (derived → base).
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  ref_ptr(const ref_ptr<U>& o) : p_(o.get()) {  // NOLINT(google-explicit-constructor)
    if (p_ != nullptr) p_->ref_clone();
  }
  template <typename U>
    requires std::is_convertible_v<U*, T*>
  ref_ptr(ref_ptr<U>&& o) noexcept : p_(o.release_to_caller()) {}  // NOLINT(google-explicit-constructor)

  ref_ptr& operator=(const ref_ptr& o) {
    if (this != &o) {
      ref_ptr tmp(o);
      swap(tmp);
    }
    return *this;
  }
  ref_ptr& operator=(ref_ptr&& o) noexcept {
    swap(o);
    return *this;
  }
  ~ref_ptr() { reset(); }

  void reset() {
    if (p_ != nullptr) {
      p_->ref_release();
      p_ = nullptr;
    }
  }
  // Hand the reference to the caller (no release).
  T* release_to_caller() {
    T* p = p_;
    p_ = nullptr;
    return p;
  }
  void swap(ref_ptr& o) noexcept { std::swap(p_, o.p_); }

  T* get() const { return p_; }
  T* operator->() const { return p_; }
  T& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  T* p_ = nullptr;
};

// Create an object; the returned ref_ptr owns the creation reference.
template <typename T, typename... Args>
ref_ptr<T> make_object(Args&&... args) {
  return ref_ptr<T>::adopt(new T(std::forward<Args>(args)...));
}

}  // namespace mach
