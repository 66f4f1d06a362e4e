#include "svc/machcached.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "base/panic.h"
#include "base/rng.h"
#include "ipc/port.h"
#include "metrics/kmetrics.h"
#include "trace/kspan.h"

namespace mach {

// --- mc_item ---

mc_item::mc_item(std::uint64_t key, zone& vz, std::uint64_t* block, const std::uint64_t* words,
                 std::size_t len)
    : kobject("mc-item"), key_(key), vz_(vz), block_(block), len_(len) {
  for (std::size_t i = 0; i < len_; ++i) block_[i] = words[i];
}

void mc_item::on_last_reference() { vz_.free(block_); }

// --- mc_cache ---

struct mc_cache::shard {
  lock_data_t lock;
  std::unordered_map<std::uint64_t, ref_ptr<mc_item>> map;
};

namespace {

// The service port's queue bound: past it a send gets KERN_NO_SPACE.
constexpr std::size_t kServiceQueueLimit = 4096;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

mc_cache::mc_cache(const mc_cache_config& cfg)
    : cfg_(cfg),
      vzone_("mc-items", std::max<std::size_t>(cfg.value_words, 1) * sizeof(std::uint64_t),
             cfg.max_items) {
  const std::size_t n =
      round_up_pow2(static_cast<std::size_t>(std::clamp(cfg.shards, 1, 1024)));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<shard>();
    // One shared name: the lockstat contention table aggregates by name,
    // so all stripes of the item table report as a single row.
    lock_init(&s->lock, /*can_sleep=*/true, "mc-shard");
    shards_.push_back(std::move(s));
  }
}

mc_cache::~mc_cache() = default;  // shards_ (and their items) die before vzone_

mc_cache::shard& mc_cache::shard_for(std::uint64_t key) const {
  std::uint64_t s = key;
  return *shards_[splitmix64(s) & (shards_.size() - 1)];
}

ref_ptr<mc_item> mc_cache::get(std::uint64_t key) {
  gets_.add();
  shard& sh = shard_for(key);
  ref_ptr<mc_item> r;
  {
    read_lock_guard g(sh.lock);
    auto it = sh.map.find(key);
    // Cloning the table's reference under the read hold is safe: a clone
    // never blocks (paper section 8).
    if (it != sh.map.end()) r = it->second;
  }
  if (r) {
    hits_.add();
  } else {
    misses_.add();
  }
  return r;
}

kern_return_t mc_cache::set(std::uint64_t key, const std::uint64_t* words, std::size_t len) {
  MACH_ASSERT(len <= cfg_.value_words, "mc_cache::set value exceeds configured value_words");
  sets_.add();
  // Allocate (and potentially observe backpressure) BEFORE the shard
  // write hold: a SET never sleeps on the zone while holding table locks,
  // and an overwrite frees its displaced block only after the swap — so
  // the zone needs transient headroom of one element per in-flight SET.
  void* block = vzone_.alloc_nowait();
  if (block == nullptr) {
    set_failures_.add();
    return KERN_RESOURCE_SHORTAGE;
  }
  ref_ptr<mc_item> item = make_object<mc_item>(key, vzone_, static_cast<std::uint64_t*>(block),
                                               words, len);
  ref_ptr<mc_item> displaced;
  shard& sh = shard_for(key);
  {
    write_lock_guard g(sh.lock);
    ref_ptr<mc_item>& slot = sh.map[key];
    displaced = std::move(slot);
    slot = std::move(item);
  }
  // `displaced` dies here, outside the write hold: releasing the last
  // reference may block (returning the block to the zone), which is not
  // allowed under table locks.
  return KERN_SUCCESS;
}

bool mc_cache::del(std::uint64_t key) {
  ref_ptr<mc_item> victim;
  shard& sh = shard_for(key);
  {
    write_lock_guard g(sh.lock);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      victim = std::move(it->second);
      sh.map.erase(it);
    }
  }
  if (victim) {
    deletes_.add();
    return true;  // victim's reference dies after the lock, as in set()
  }
  delete_misses_.add();
  return false;
}

std::size_t mc_cache::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_) {
    read_lock_guard g(sh->lock);
    n += sh->map.size();
  }
  return n;
}

mc_cache_stats mc_cache::stats() const {
  mc_cache_stats s;
  s.gets = gets_.value();
  s.hits = hits_.value();
  s.misses = misses_.value();
  s.sets = sets_.value();
  s.set_failures = set_failures_.value();
  s.deletes = deletes_.value();
  s.delete_misses = delete_misses_.value();
  return s;
}

bool mc_cache::check_quiesced(std::string* why) const {
  std::size_t resident = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    read_lock_guard g(shards_[i]->lock);
    for (const auto& [key, item] : shards_[i]->map) {
      ++resident;
      const int rc = item->ref_count();
      if (rc != 1) {
        if (why != nullptr) {
          *why = "item key=" + std::to_string(key) + " in shard " + std::to_string(i) +
                 " has ref_count " + std::to_string(rc) + " at quiesce (expected 1)";
        }
        return false;
      }
      if (item->key() != key) {
        if (why != nullptr) {
          *why = "item under key " + std::to_string(key) + " claims key " +
                 std::to_string(item->key());
        }
        return false;
      }
    }
  }
  const std::size_t zoned = vzone_.in_use();
  if (zoned != resident) {
    if (why != nullptr) {
      *why = "value zone holds " + std::to_string(zoned) + " blocks but " +
             std::to_string(resident) + " items are resident (leak or double-account)";
    }
    return false;
  }
  return true;
}

// --- machcached_server ---

machcached_server::machcached_server(mc_cache& cache, const machcached_config& cfg)
    : cache_(cache), cfg_(cfg), served_(static_cast<std::size_t>(std::max(cfg.workers, 1))) {
  MACH_ASSERT(cfg_.workers >= 1, "machcached_server needs at least one worker");
  service_ = make_object<port>("mc-service");
  service_->set_queue_limit(kServiceQueueLimit);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i) {
    workers_.push_back(
        kthread::spawn("mc-worker-" + std::to_string(i), [this, i] { worker_loop(i); }));
  }
}

machcached_server::~machcached_server() { stop(); }

void machcached_server::stop() {
  if (workers_.empty()) return;
  // Killing the port is the shutdown signal: blocked receivers wake,
  // re-check liveness, and retire; late senders get KERN_TERMINATED.
  service_->destroy_port();
  for (auto& w : workers_) w->join();
  workers_.clear();
}

std::uint64_t machcached_server::served() const {
  std::uint64_t n = 0;
  for (const event_counter& c : served_) n += c.value();
  return n;
}

void machcached_server::worker_loop(int idx) {
  using namespace std::chrono_literals;
  for (;;) {
    std::optional<message> req = service_->receive(20ms);
    if (!req.has_value()) {
      service_->lock();
      bool dead = !service_->active();
      service_->unlock();
      if (dead) break;
      continue;
    }
    // Server-side leg of the request's causal trace (no-op untraced).
    kspan::adopt_scope span(req->span_ctx, "mc-serve");
    const std::uint64_t start = kmon::enabled() ? now_nanos() : 0;
    message reply(req->op);
    if (req->data.size() < 2) {
      reply.ret = KERN_FAILURE;
    } else {
      const std::uint64_t key = req->data[0];
      reply.data.push_back(req->data[1]);  // echo the client stamp
      switch (req->op) {
        case MC_GET: {
          ref_ptr<mc_item> item = cache_.get(key);
          if (item) {
            reply.ret = KERN_SUCCESS;
            reply.data.insert(reply.data.end(), item->value(), item->value() + item->size());
            kmet().svc_hits.inc();
          } else {
            reply.ret = KERN_INVALID_NAME;
            kmet().svc_misses.inc();
          }
          break;
        }
        case MC_SET: {
          reply.ret = cache_.set(key, req->data.data() + 2, req->data.size() - 2);
          if (reply.ret == KERN_RESOURCE_SHORTAGE) kmet().svc_backpressure.inc();
          break;
        }
        case MC_DEL:
          reply.ret = cache_.del(key) ? KERN_SUCCESS : KERN_INVALID_NAME;
          break;
        default:
          reply.ret = KERN_INVALID_OP;
          break;
      }
    }
    served_[static_cast<std::size_t>(idx)].add();
    kmet().svc_requests.inc();
    if (start != 0) kmet().svc_serve_nanos.record(now_nanos() - start);
    if (req->reply_to) {
      // Undeliverable replies (dead reply port) are the client's problem.
      (void)req->reply_to->send(std::move(reply));
    }
  }
}

}  // namespace mach
