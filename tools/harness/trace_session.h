// trace_session — RAII driver for whole-program observability, used by the
// bench harness: construct one at the top of main() and every `bench_e*`
// run can emit a trace with
//
//     MACHLOCK_TRACE=out.json ./bench_e1_spin_policies
//
// The default constructor reads the MACHLOCK_* environment; the one list
// of variables, defaults and exports is docs/OBSERVABILITY.md. Each
// instrument switched on there is started here; the destructor stops what
// this session started, writes its exports (trace, metrics, kprof profile,
// lockstat and bench JSON) and prints its reports (wait-graph cycles,
// lock-order violations). Numbers are read by env_number (harness/env.h):
// a malformed value is reported on stderr and the default kept. This is
// the one reader of the environment; the kernel library reads none.
#pragma once

#include <string>

#include "metrics/watchdog.h"

namespace mach {

// Watchdog config from the MACHLOCK_WATCHDOG_* variables (defaults as in
// watchdog_config). Its on_trip sink writes the report to stderr and the
// lockstat top table to stdout, where the bench output lives.
watchdog_config watchdog_config_from_env();

class trace_session {
 public:
  enum class format { chrome_json, text };

  // Environment-driven (see above); tracing inactive if MACHLOCK_TRACE is
  // unset (the other env toggles are still honored).
  trace_session();
  // Explicit session: enable now, export to `path` on destruction. Only
  // drives ktrace; the env toggles are not read.
  trace_session(std::string path, format f);
  ~trace_session();

  trace_session(const trace_session&) = delete;
  trace_session& operator=(const trace_session&) = delete;

  bool active() const noexcept { return active_; }
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  format format_ = format::chrome_json;
  bool active_ = false;
  // What this session turned on (and must turn off / report).
  std::string metrics_path_;
  std::string prof_path_;
  bool started_prof_ = false;
  bool started_watchdog_ = false;
  bool started_spans_ = false;
  bool report_deadlock_ = false;
  bool report_lock_order_ = false;
};

}  // namespace mach
