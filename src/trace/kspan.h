// kspan — request-scoped causal tracing on top of ktrace.
//
// ktrace answers "what happened on this thread and for how long"; lockstat
// and kmon answer "how often, system-wide". Neither can answer the question
// a request-serving workload lives on: for ONE request, where did its
// latency go, and which lock (and which holder) sat on its critical path?
// kspan supplies the missing identity: a span context — a trace id naming
// the request plus a span id naming the current leg — carried in a
// thread-local slot, stamped into every ktrace record the thread emits,
// propagated across IPC (a context field in struct message, adopted by the
// receiver), and annotated at every blocking edge (lock slow paths record
// the lock and its holder; wakeup delivery records who unblocked whom).
// The Chrome exporter renders the cross-thread hops as flow events
// (`ph:"s"/"t"/"f"`), and tools/span_report reconstructs each request's
// critical path from the exported JSON.
//
// Context encoding: one 64-bit word, trace id in the high 32 bits, span id
// in the low 32. Zero means "no active span". Packing keeps the hot paths
// (stamp-into-record, copy-into-message, publish-to-watchdog-slot) single
// loads and stores.
//
// Cost model (the ktrace/kmon discipline): compiled in unconditionally;
// runtime-disabled by default via MACHLOCK_SPANS=1 or kspan::enable().
// Disabled, every hook is one relaxed atomic load (scopes) or one
// thread-local load (context reads) — no clock reads, no stores. Span
// *records* additionally require ktrace to be enabled; with only kspan on,
// contexts still propagate and the per-kind kmon latency histograms still
// fill, but nothing is written to the rings.
#pragma once

#include <atomic>
#include <cstdint>

#include "trace/ktrace.h"

namespace mach {

// Packed span context: trace id (hi 32) | span id (lo 32). 0 = none.
using span_ctx_t = std::uint64_t;

inline constexpr std::uint32_t span_trace_id(span_ctx_t c) noexcept {
  return static_cast<std::uint32_t>(c >> 32);
}
inline constexpr std::uint32_t span_span_id(span_ctx_t c) noexcept {
  return static_cast<std::uint32_t>(c);
}

namespace kspan {

namespace detail {
// The calling thread's active context; read by ktrace::detail::emit_slow to
// stamp every record, and by the watchdog wait hooks to name the stalled
// request. Written only by the owning thread (scope ctors/dtors).
extern constinit thread_local span_ctx_t tl_ctx;
// Allocate a fresh root context (new trace id, span id 1) / a child of
// `parent` (same trace id, fresh span id).
span_ctx_t make_root() noexcept;
span_ctx_t make_child(span_ctx_t parent) noexcept;
// Emit the once-per-thread span_bind record (thread token -> ring tid) so
// offline analysis can name holder tokens. No-op until ktrace is enabled.
void bind_thread() noexcept;
// Close a span scope: emit span_end, feed the per-kind kmon histogram.
void end_scope(const char* kind, span_ctx_t ctx, std::uint64_t start_nanos,
               bool root) noexcept;
}  // namespace detail

// The global switch, kspan's bit in probe_mask. One relaxed load, same
// contract as ktrace::enabled().
inline bool enabled() noexcept { return probe_on(probe_kspan); }
inline void enable() noexcept { probe_set(probe_kspan, true); }
inline void disable() noexcept { probe_set(probe_kspan, false); }

// The calling thread's active context (0 when none / spans disabled).
inline span_ctx_t current() noexcept { return detail::tl_ctx; }

// RAII root span: one request, from arrival to reply. Installs a fresh
// context for the scope's extent; no-op when kspan is disabled.
class request {
 public:
  explicit request(const char* kind) noexcept : kind_(kind) {
    if (!enabled()) [[likely]] return;
    prev_ = detail::tl_ctx;
    ctx_ = detail::make_root();
    detail::tl_ctx = ctx_;
    start_ = now_nanos();
    detail::bind_thread();
    ktrace::emit(trace_kind::span_begin, kind_, /*root=*/1, ctx_);
  }
  ~request() {
    if (ctx_ == 0) return;
    detail::end_scope(kind_, ctx_, start_, /*root=*/true);
    detail::tl_ctx = prev_;
  }
  request(const request&) = delete;
  request& operator=(const request&) = delete;

  bool active() const noexcept { return ctx_ != 0; }
  span_ctx_t ctx() const noexcept { return ctx_; }

 private:
  const char* kind_;
  span_ctx_t ctx_ = 0;
  span_ctx_t prev_ = 0;
  std::uint64_t start_ = 0;
};

// RAII adopted span: continue a context received from another thread (an
// IPC message's span_ctx) as a child span — same trace id, fresh span id.
// Restores the previous context on destruction, so nesting (a server thread
// with its own housekeeping span adopting a request mid-stream, or an RPC
// reply landing back in the client) unwinds correctly. No-op when kspan is
// disabled or `received` is 0.
class adopt_scope {
 public:
  explicit adopt_scope(span_ctx_t received, const char* kind = "adopted") noexcept
      : kind_(kind) {
    if (!enabled()) [[likely]] return;
    if (received == 0) return;
    prev_ = detail::tl_ctx;
    ctx_ = detail::make_child(received);
    detail::tl_ctx = ctx_;
    start_ = now_nanos();
    detail::bind_thread();
    ktrace::emit(trace_kind::span_begin, kind_, /*root=*/0, ctx_);
  }
  ~adopt_scope() {
    if (ctx_ == 0) return;
    detail::end_scope(kind_, ctx_, start_, /*root=*/false);
    detail::tl_ctx = prev_;
  }
  adopt_scope(const adopt_scope&) = delete;
  adopt_scope& operator=(const adopt_scope&) = delete;

  bool active() const noexcept { return ctx_ != 0; }
  span_ctx_t ctx() const noexcept { return ctx_; }

 private:
  const char* kind_;
  span_ctx_t ctx_ = 0;
  span_ctx_t prev_ = 0;
  std::uint64_t start_ = 0;
};

}  // namespace kspan
}  // namespace mach
