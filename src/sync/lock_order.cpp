#include "sync/lock_order.h"

#include <atomic>
#include <cstring>
#include <mutex>
#include <sstream>
#include <utility>

#include "base/panic.h"

namespace mach {
namespace {

struct held_entry {
  const void* lock;
  lock_class cls;
};

thread_local std::vector<held_entry> tl_held;

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_panic{false};

std::mutex g_violations_mutex;
std::vector<std::string> g_violations;
std::atomic<std::size_t> g_violation_count{0};

void report(const std::string& description) {
  if (g_panic.load(std::memory_order_relaxed)) panic(description);
  std::lock_guard<std::mutex> g(g_violations_mutex);
  g_violations.push_back(description);
  g_violation_count.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

lock_order_validator& lock_order_validator::instance() noexcept {
  static lock_order_validator v;
  return v;
}

void lock_order_validator::set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool lock_order_validator::enabled() const noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

void lock_order_validator::set_panic_on_violation(bool on) noexcept {
  g_panic.store(on, std::memory_order_relaxed);
}

void lock_order_validator::on_acquire(const void* lock, const lock_class& cls) {
  if (!enabled()) return;
  for (const held_entry& h : tl_held) {
    if (std::strcmp(h.cls.subsystem, cls.subsystem) != 0) continue;
    bool bad_rank = cls.rank < h.cls.rank;
    bool bad_address = cls.rank == h.cls.rank && lock <= h.lock;
    if (bad_rank || bad_address) {
      std::ostringstream os;
      os << "lock order violation in subsystem '" << cls.subsystem << "': acquired '"
         << cls.name << "' (rank " << cls.rank << ", @" << lock << ") while holding '"
         << h.cls.name << "' (rank " << h.cls.rank << ", @" << h.lock << ")";
      if (bad_address) os << " — same rank requires increasing address order";
      report(os.str());
    }
  }
  tl_held.push_back({lock, cls});
}

// Not gated on enabled(): a release retires what its acquire recorded even
// if the validator was switched off in between, or the stale entry would
// flag later acquisitions. With nothing recorded the search is empty.
void lock_order_validator::on_release(const void* lock) {
  for (auto it = tl_held.rbegin(); it != tl_held.rend(); ++it) {
    if (it->lock == lock) {
      tl_held.erase(std::next(it).base());
      return;
    }
  }
}

std::vector<std::string> lock_order_validator::take_violations() {
  std::lock_guard<std::mutex> g(g_violations_mutex);
  return std::exchange(g_violations, {});
}

std::size_t lock_order_validator::violation_count() const {
  return g_violation_count.load(std::memory_order_relaxed);
}

}  // namespace mach
