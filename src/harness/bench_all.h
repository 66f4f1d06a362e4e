// bench_all: run the bench suite and produce a tree of merged results.
//
// Discovers every bench_* binary in a build's bench directory, runs each
// one MACHLOCK_BENCH_REPS times (each rep writes its BENCH_<name>.json
// into a private scratch dir via MACHLOCK_BENCH_JSON), normalizes e13's
// google-benchmark output into the common table model, merges the reps
// per bench (median values, per-cell coefficient of variation — see
// bench_model.h), and writes the merged BENCH_*.json tree into the output
// directory. The CI perf gate writes one such tree at the parent commit
// and one at the change, on the same host, and diffs them.
//
// Child processes inherit the parent environment plus MACHLOCK_BENCH_JSON
// (per rep) and, when configured, MACHLOCK_BENCH_MS and MACHLOCK_GIT_SHA
// (resolved from `git rev-parse` when not already set), so every file in
// the tree carries the same meta stamp.
#pragma once

#include <string>
#include <vector>

namespace mach {

struct bench_all_options {
  std::string bench_dir;  // directory holding the bench binaries
  std::string out_dir;    // destination for the merged BENCH_*.json tree
  int reps = 1;           // repetitions per bench (median-of-N)
  int bench_ms = 0;       // forwarded as MACHLOCK_BENCH_MS when > 0
  std::string only;       // substring filter on binary names ("" = all)
  bool verbose = true;    // per-bench progress + CoV summary on stderr
};

struct bench_all_report {
  std::vector<std::string> written;  // merged files, in run order
  std::vector<std::string> errors;   // one line per failed bench/rep
  int benches_run = 0;
  int benches_failed = 0;
};

// Returns false on a setup error (missing bench dir, unwritable output
// dir). Per-bench failures (non-zero exit, missing/unparseable JSON) are
// recorded in report->errors and counted in benches_failed instead.
bool run_bench_all(const bench_all_options& opts, bench_all_report* report, std::string* err);

// Reads MACHLOCK_BENCH_REPS (default `def`), clamped to [1, 99].
int bench_reps_from_env(int def = 1);

}  // namespace mach
