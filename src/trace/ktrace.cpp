#include "trace/ktrace.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "trace/kspan.h"

namespace mach {

namespace {

struct kind_meta {
  const char* label;
  const char* category;
  bool is_span;
};

const kind_meta& meta_for(trace_kind k) noexcept {
  static const kind_meta table[] = {
      {"none", "none", false},
      {"lock-wait", "sync", true},
      {"lock-held", "sync", true},
      {"read-wait", "sync", true},
      {"write-wait", "sync", true},
      {"upgrade-wait", "sync", true},
      {"write-held", "sync", true},
      {"assert-wait", "sched", false},
      {"blocked", "sched", true},
      {"wakeup", "sched", false},
      {"ref-take", "kern", false},
      {"ref-release", "kern", false},
      {"ref-deactivate", "kern", false},
      {"barrier-round", "smp", true},
      {"barrier-isr", "smp", true},
      {"shootdown", "vm", true},
      {"shootdown-post", "vm", false},
      {"shootdown-excluded", "vm", false},
      {"rpc-translate", "ipc", true},
      {"rpc-dispatch", "ipc", true},
      {"span-begin", "span", false},
      {"span-end", "span", true},
      {"span-send", "span", false},
      {"span-recv", "span", false},
      {"span-unblock", "span", false},
      {"span-blocked", "span", false},
      {"span-bind", "span", false},
  };
  static_assert(sizeof(table) / sizeof(table[0]) ==
                static_cast<std::size_t>(trace_kind::kind_count));
  auto i = static_cast<std::size_t>(k);
  if (i >= static_cast<std::size_t>(trace_kind::kind_count)) i = 0;
  return table[i];
}

}  // namespace

const char* trace_kind_label(trace_kind k) noexcept { return meta_for(k).label; }
const char* trace_kind_category(trace_kind k) noexcept { return meta_for(k).category; }
bool trace_kind_is_span(trace_kind k) noexcept { return meta_for(k).is_span; }

namespace ktrace {

namespace detail {
}  // namespace detail

namespace {

// One ring per thread that ever emitted. The owning thread is the only
// writer; `head` counts records ever written (the slot index is
// head % capacity), released so a collector that acquires it sees the
// corresponding slots. Rings are registered globally and never freed, so
// the collector can read rings of exited threads.
struct trace_ring {
  explicit trace_ring(std::size_t cap, std::uint32_t id, std::string nm)
      : slots(cap), tid(id), name(std::move(nm)) {}

  std::vector<trace_record> slots;
  std::atomic<std::uint64_t> head{0};
  std::uint32_t tid;
  std::string name;  // guarded by registry mutex

  void push(const trace_record& r) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % slots.size()] = r;
    head.store(h + 1, std::memory_order_release);
  }
};

struct ring_registry {
  std::mutex m;
  std::vector<std::unique_ptr<trace_ring>> rings;
  std::size_t default_capacity = 8192;
};

// Leaked (threads may trace during static destruction).
ring_registry& registry() {
  static ring_registry* r = new ring_registry;
  return *r;
}

thread_local trace_ring* tl_ring = nullptr;
thread_local std::string* tl_pending_name = nullptr;

trace_ring& my_ring() {
  if (tl_ring != nullptr) return *tl_ring;
  ring_registry& reg = registry();
  std::lock_guard<std::mutex> g(reg.m);
  auto tid = static_cast<std::uint32_t>(reg.rings.size() + 1);
  std::string name = tl_pending_name != nullptr ? *tl_pending_name
                                                : "thread-" + std::to_string(tid);
  reg.rings.push_back(std::make_unique<trace_ring>(reg.default_capacity, tid, std::move(name)));
  tl_ring = reg.rings.back().get();
  return *tl_ring;
}

}  // namespace

namespace detail {

void emit_slow(trace_kind kind, const char* name, std::uint64_t arg1, std::uint64_t arg2,
               std::uint64_t nanos) noexcept {
  trace_record r;
  r.nanos = nanos;
  r.arg1 = arg1;
  r.arg2 = arg2;
  r.ctx = kspan::current();  // request attribution; 0 when no span active
  r.name = name;
  r.kind = kind;
  my_ring().push(r);
}

}  // namespace detail

void set_thread_name(std::string name) {
  // Stash for the ring this thread may create later...
  static thread_local std::string pending;
  pending = std::move(name);
  tl_pending_name = &pending;
  // ...and rename an already-created ring in place.
  if (tl_ring != nullptr) {
    std::lock_guard<std::mutex> g(registry().m);
    tl_ring->name = pending;
  }
}

void set_default_ring_capacity(std::size_t records) {
  ring_registry& reg = registry();
  std::lock_guard<std::mutex> g(reg.m);
  reg.default_capacity = records == 0 ? 1 : records;
}

std::size_t default_ring_capacity() noexcept {
  ring_registry& reg = registry();
  std::lock_guard<std::mutex> g(reg.m);
  return reg.default_capacity;
}

void reset() {
  ring_registry& reg = registry();
  std::lock_guard<std::mutex> g(reg.m);
  for (auto& ring : reg.rings) {
    ring->head.store(0, std::memory_order_release);
    std::fill(ring->slots.begin(), ring->slots.end(), trace_record{});
  }
}

std::uint64_t trace_collection::total_dropped() const noexcept {
  std::uint64_t sum = 0;
  for (const thread_info& t : threads) sum += t.dropped;
  return sum;
}

trace_collection collect() {
  trace_collection out;
  ring_registry& reg = registry();
  std::lock_guard<std::mutex> g(reg.m);
  for (const auto& ring : reg.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const auto cap = static_cast<std::uint64_t>(ring->slots.size());
    const std::uint64_t n = std::min(head, cap);

    thread_info info;
    info.tid = ring->tid;
    info.name = ring->name;
    info.written = head;
    info.dropped = head > cap ? head - cap : 0;
    out.threads.push_back(std::move(info));

    for (std::uint64_t i = head - n; i < head; ++i) {
      const trace_record& r = ring->slots[i % cap];
      if (r.kind == trace_kind::none) continue;
      out.events.push_back({r, ring->tid});
    }
  }
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const collected_event& a, const collected_event& b) {
                     return a.rec.nanos < b.rec.nanos;
                   });
  return out;
}

}  // namespace ktrace
}  // namespace mach
