#include "trace/kspan.h"

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "metrics/kmetrics.h"
#include "sync/deadlock.h"  // current_thread_token

namespace mach::kspan {

namespace detail {

constinit thread_local span_ctx_t tl_ctx = 0;

namespace {

// Trace ids name requests, span ids name legs; both only need uniqueness
// over a trace's lifetime, so plain wrapping counters are enough. Ids start
// at 1 so a zero context always means "none".
std::atomic<std::uint32_t> g_next_trace{1};
std::atomic<std::uint32_t> g_next_span{2};

std::uint32_t next_nonzero(std::atomic<std::uint32_t>& c) noexcept {
  std::uint32_t id = c.fetch_add(1, std::memory_order_relaxed);
  while (id == 0) id = c.fetch_add(1, std::memory_order_relaxed);  // skip wrap-to-zero
  return id;
}

// Per-request-kind latency histograms, created on first use and leaked
// (kmon registry discipline: metrics with static storage may outlive main).
// Kind names are the const char* literals passed to the scopes; matching is
// by string value so two literals with equal text share one histogram.
struct kind_hist_registry {
  std::mutex m;
  std::vector<std::pair<std::string, std::unique_ptr<kmon::histogram>>> hists;
};

kind_hist_registry& kind_hists() {
  static kind_hist_registry* r = new kind_hist_registry;
  return *r;
}

kmon::histogram& kind_histogram(const char* kind) {
  kind_hist_registry& reg = kind_hists();
  std::lock_guard<std::mutex> g(reg.m);
  for (auto& [name, h] : reg.hists) {
    if (name == kind) return *h;
  }
  reg.hists.emplace_back(kind, std::make_unique<kmon::histogram>(
                                   "machlock_span_nanos",
                                   "kspan span latency by request/span kind", "kind", kind));
  return *reg.hists.back().second;
}

thread_local bool t_bound = false;

}  // namespace

span_ctx_t make_root() noexcept {
  return (static_cast<span_ctx_t>(next_nonzero(g_next_trace)) << 32) | 1u;
}

span_ctx_t make_child(span_ctx_t parent) noexcept {
  return (parent & 0xFFFF'FFFF'0000'0000ull) |
         static_cast<span_ctx_t>(next_nonzero(g_next_span));
}

void bind_thread() noexcept {
  if (t_bound || !ktrace::enabled()) return;
  t_bound = true;
  ktrace::emit(trace_kind::span_bind,
               nullptr, reinterpret_cast<std::uint64_t>(current_thread_token()));
}

void end_scope(const char* kind, [[maybe_unused]] span_ctx_t ctx, std::uint64_t start_nanos,
               bool root) noexcept {
  // `ctx` is still installed in tl_ctx here (the scope dtor restores prev_
  // only after this call), so emit_slow's stamp carries it.
  const std::uint64_t end = now_nanos();
  const std::uint64_t dur = end - start_nanos;
  // The scope's extent as a span record; arg1 = 1 marks the request root so
  // offline analysis can tell a request's wall time from a leg's. The
  // record's ctx stamp (emit_slow) carries trace/span ids.
  ktrace::emit_span(trace_kind::span_end, kind, root ? 1 : 0, dur, end);
  if (kmon::enabled()) {
    kind_histogram(kind).record(dur);
    if (root) {
      kmet().span_requests.inc();
    } else {
      kmet().span_adoptions.inc();
    }
  }
}

}  // namespace detail

}  // namespace mach::kspan
