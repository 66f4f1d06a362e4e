// In-memory spans for mcbench's traced run. Spans are taken in the
// driver, around each call it makes into a layer (port send/receive,
// mc_cache get/set, dropping a returned reference, prefill). Every span is
// added to per-name totals (count, duration, self time); the first kKeep
// spans of each thread are also kept whole and written out as a Chrome
// trace_event file when the run ends, so memory stays bounded.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum span_name : std::uint8_t {
  sp_request,      // serve-*: stamp before send until the reply is received
  sp_send,         // port::send of the request
  sp_receive,      // the port::receive call that returned the reply
  sp_op,           // cache-direct: one GET or SET, reference drop included
  sp_get,          // mc_cache::get
  sp_set,          // mc_cache::set
  sp_release,      // dropping the ref_ptr a GET returned
  sp_prefill,      // one whole prefill of the keyspace
  sp_prefill_set,  // one mc_cache::set during prefill
  sp_count
};

inline constexpr std::array<const char*, sp_count> kSpanNames = {
    "request", "ipc.send", "ipc.receive", "op", "svc.get", "svc.set",
    "kern.release", "prefill", "kern.prefill_set"};

struct span_totals {
  std::uint64_t n = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;  // duration not covered by child spans

  double mean_ns() const { return per_span(total_ns); }
  double mean_self_ns() const { return per_span(self_ns); }

 private:
  double per_span(std::uint64_t ns) const {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  }
};

class span_log {
 public:
  static constexpr std::size_t kKeep = 1 << 14;

  explicit span_log(std::uint32_t tid) : tid_(tid) { kept_.reserve(kKeep); }

  // A fresh span id, unique across threads.
  std::uint64_t next_id() { return (static_cast<std::uint64_t>(tid_) << 48) | ++ids_; }

  // `covered` is the part of [start, end) that the span's children cover.
  void record(span_name name, std::uint64_t id, std::uint64_t parent, std::uint64_t req,
              std::uint64_t start, std::uint64_t end, std::uint64_t covered) {
    const std::uint64_t dur = end > start ? end - start : 0;
    span_totals& t = totals_[name];
    ++t.n;
    t.total_ns += dur;
    t.self_ns += dur > covered ? dur - covered : 0;
    if (kept_.size() < kKeep) kept_.push_back({id, parent, req, start, end, name});
  }

  const std::array<span_totals, sp_count>& totals() const { return totals_; }

  // Appends this log's kept spans as trace_event "X" records.
  void write_events(std::FILE* f, std::uint64_t t0, bool& first) const {
    for (const rec& r : kept_) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu}}",
                   first ? "" : ",", kSpanNames[r.name], tid_,
                   static_cast<double>(r.start - t0) / 1e3,
                   static_cast<double>(r.end - r.start) / 1e3,
                   static_cast<unsigned long long>(r.id), static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.req));
      first = false;
    }
  }

  // Earliest start among the kept spans (parents are recorded after their
  // children, so this is not necessarily the first one kept).
  std::uint64_t first_start() const {
    std::uint64_t t = UINT64_MAX;
    for (const rec& r : kept_) t = std::min(t, r.start);
    return t;
  }

 private:
  struct rec {
    std::uint64_t id, parent, req, start, end;
    span_name name;
  };
  std::uint32_t tid_;
  std::uint64_t ids_ = 0;
  std::array<span_totals, sp_count> totals_{};
  std::vector<rec> kept_;
};

// Writes every log's kept spans to `path`; false on I/O failure.
inline bool write_trace(const std::string& path, const std::vector<const span_log*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const span_log* l : logs) t0 = std::min(t0, l->first_start());
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const span_log* l : logs) l->write_events(f, t0, first);
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
