// bench_all — run the bench suite into a tree of merged BENCH_*.json.
//
//   bench_all --bench-dir build/bench --out bench-fresh
//             [--reps N] [--bench-ms M] [--only e13]
//
// Repetitions default to MACHLOCK_BENCH_REPS (else 1); each bench's cells
// become the median over reps with the coefficient of variation stamped
// alongside (see src/harness/bench_all.h). Exit status: 0 when every
// bench produced a merged file, 1 when any bench failed, 2 on usage or
// setup errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/bench_all.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --bench-dir <dir> --out <dir> [--reps N] [--bench-ms M] [--only SUB]\n"
               "  --reps defaults to MACHLOCK_BENCH_REPS (else 1)\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  mach::bench_all_options opts;
  opts.reps = mach::bench_reps_from_env(1);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--bench-dir") {
      const char* v = next("--bench-dir");
      if (v == nullptr) return usage(argv[0]);
      opts.bench_dir = v;
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return usage(argv[0]);
      opts.out_dir = v;
    } else if (arg == "--reps") {
      const char* v = next("--reps");
      if (v == nullptr) return usage(argv[0]);
      opts.reps = std::atoi(v);
      if (opts.reps < 1) return usage(argv[0]);
    } else if (arg == "--bench-ms") {
      const char* v = next("--bench-ms");
      if (v == nullptr) return usage(argv[0]);
      opts.bench_ms = std::atoi(v);
    } else if (arg == "--only") {
      const char* v = next("--only");
      if (v == nullptr) return usage(argv[0]);
      opts.only = v;
    } else if (arg == "--quiet") {
      opts.verbose = false;
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.bench_dir.empty() || opts.out_dir.empty()) return usage(argv[0]);

  mach::bench_all_report report;
  std::string err;
  if (!mach::run_bench_all(opts, &report, &err)) {
    std::fprintf(stderr, "bench_all: %s\n", err.c_str());
    return 2;
  }
  std::printf("bench_all: %d bench(es), %zu baseline file(s) written to %s, %d failed\n",
              report.benches_run, report.written.size(), opts.out_dir.c_str(),
              report.benches_failed);
  for (const std::string& e : report.errors) std::printf("bench_all: error: %s\n", e.c_str());
  return report.benches_failed == 0 ? 0 : 1;
}
