// machcached — a memcached-style request/response service built entirely
// on the kernel substrate, and the workload that perfbench's end-to-end
// benchmark serves (perfbench/README.md).
//
// The shape follows the paper's own layering rather than a user-space
// cache library:
//
//   * items are kernel objects (`mc_item` : kobject) — existence is
//     coordinated by reference counting (section 8), with kobject's
//     default atomic count;
//   * item values live in a zalloc zone (section 4's "memory allocation
//     blocks if memory is not available" substrate) — the zone capacity
//     is the cache's "physical memory" and SET observes backpressure
//     through it;
//   * the item table is guarded by complex locks (Appendix B): GET takes
//     a read hold, SET/DELETE a write hold, optionally striped across
//     shards so the lock-granularity story of section 2 is measurable
//     against served traffic;
//   * client "connections" arrive as IPC messages on a service port
//     (section 3); a pool of worker kthreads serves them and replies
//     through each message's carried reply-port right.
//
// docs/MACHCACHED.md is the operator's guide.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/stats.h"
#include "ipc/message.h"
#include "ipc/port.h"
#include "kern/object.h"
#include "kern/zalloc.h"
#include "metrics/kmon.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"

namespace mach {

// --- items (kernel objects holding zone-backed values) ---

class mc_item final : public kobject {
 public:
  // Adopts `block` (allocated from `vz`, at least `len` words); the block
  // returns to the zone when the last reference dies. The value is
  // immutable after construction, so readers holding a reference never
  // need the item lock (a SET replaces the whole item instead).
  mc_item(std::uint64_t key, zone& vz, std::uint64_t* block, const std::uint64_t* words,
          std::size_t len);

  std::uint64_t key() const noexcept { return key_; }
  std::size_t size() const noexcept { return len_; }
  const std::uint64_t* value() const noexcept { return block_; }

 protected:
  void on_last_reference() override;

 private:
  std::uint64_t key_;
  zone& vz_;
  std::uint64_t* block_;
  std::size_t len_;
};

// --- the shared key→object cache ---

struct mc_cache_config {
  // Item-table stripe count (rounded up to a power of two). 1 reproduces
  // the paper's single complex-lock table.
  int shards = 1;
  // Zone capacity: resident item ceiling (SET fails with
  // KERN_RESOURCE_SHORTAGE once the zone is exhausted — zalloc
  // backpressure, not an eviction policy).
  std::size_t max_items = 4096;
  // Fixed value-block size, in 64-bit words.
  std::size_t value_words = 8;
};

struct mc_cache_stats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t set_failures = 0;  // zone exhausted
  std::uint64_t deletes = 0;       // successful erases
  std::uint64_t delete_misses = 0;
};

class mc_cache {
 public:
  explicit mc_cache(const mc_cache_config& cfg = {});
  ~mc_cache();
  mc_cache(const mc_cache&) = delete;
  mc_cache& operator=(const mc_cache&) = delete;

  // GET: clone a reference under the shard's read hold (cloning never
  // blocks — paper section 8 — so holding the complex lock is safe).
  ref_ptr<mc_item> get(std::uint64_t key);
  // SET: build the replacement item (zone allocation happens BEFORE the
  // shard write hold) and swap it in; the displaced item's reference is
  // released after the lock is dropped. KERN_RESOURCE_SHORTAGE when the
  // item zone is exhausted.
  kern_return_t set(std::uint64_t key, const std::uint64_t* words, std::size_t len);
  // DELETE: erase under the write hold; returns false on a miss.
  bool del(std::uint64_t key);

  std::size_t size() const;  // resident items, summed across shards
  mc_cache_stats stats() const;
  int shards() const noexcept { return static_cast<int>(shards_.size()); }
  const mc_cache_config& config() const noexcept { return cfg_; }
  zone& value_zone() noexcept { return vzone_; }

  // Quiescence invariant for the stress battery: with no operations in
  // flight, every resident item holds exactly one reference (the
  // table's) and the value zone's occupancy equals the resident count.
  // Returns false and fills `why` on violation.
  bool check_quiesced(std::string* why) const;

 private:
  struct shard;
  shard& shard_for(std::uint64_t key) const;

  mc_cache_config cfg_;
  zone vzone_;
  std::vector<std::unique_ptr<shard>> shards_;
  // Striped per way, so callers on different ways share no counter line.
  kmon::striped_counter gets_, hits_, misses_, sets_, set_failures_, deletes_, delete_misses_;
};

// --- the service (worker kthreads, IPC in front) ---

enum mc_op : std::uint32_t {
  MC_GET = 100,  // request data: [key, client-stamp]; hit reply data: [stamp, value...]
  MC_SET = 101,  // request data: [key, client-stamp, value...]; reply data: [stamp]
  MC_DEL = 102,  // request data: [key, client-stamp]; reply data: [stamp]
};

struct machcached_config {
  int workers = 2;
};

class machcached_server {
 public:
  machcached_server(mc_cache& cache, const machcached_config& cfg = {});
  ~machcached_server();

  port& service() noexcept { return *service_; }
  ref_ptr<port> service_ref() const { return service_; }

  // Destroy the service port (senders observe KERN_TERMINATED, blocked
  // workers wake and retire) and join the workers. Idempotent.
  void stop();
  std::uint64_t served() const;
  int workers() const noexcept { return cfg_.workers; }

 private:
  void worker_loop(int idx);

  mc_cache& cache_;
  machcached_config cfg_;
  ref_ptr<port> service_;
  // Requests served, one padded count per worker so the workers never
  // share a line for it; served() sums them.
  std::vector<event_counter> served_;
  std::vector<std::unique_ptr<kthread>> workers_;
};

}  // namespace mach
