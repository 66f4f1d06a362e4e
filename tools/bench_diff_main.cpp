// bench_diff — compare two bench-baseline trees and gate on regressions.
//
//   bench_diff <baseline-dir> <fresh-dir> [--json verdict.json] [--md report.md]
//              [--min-rel-delta 0.25] [--cov-mult 3.0] [--advisory]
//
// Prints the markdown report to stdout (and to --md when given), writes
// the machine-readable verdict to --json. Exit status: 0 when no
// regression beyond threshold (or --advisory), 1 on regressions, 2 on
// usage/IO errors. See harness/bench_diff.h for the noise model.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/bench_diff.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <baseline-dir> <fresh-dir> [--json FILE] [--md FILE]\n"
               "          [--min-rel-delta F] [--cov-mult F] [--advisory]\n",
               argv0);
  return 2;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
  return std::fclose(f) == 0 && n == body.size();
}

}  // namespace

int main(int argc, char** argv) {
  std::string base_dir, fresh_dir, json_path, md_path;
  mach::diff_options opts;
  bool advisory = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      const char* v = next("--json");
      if (v == nullptr) return usage(argv[0]);
      json_path = v;
    } else if (arg == "--md") {
      const char* v = next("--md");
      if (v == nullptr) return usage(argv[0]);
      md_path = v;
    } else if (arg == "--min-rel-delta") {
      const char* v = next("--min-rel-delta");
      if (v == nullptr) return usage(argv[0]);
      opts.min_rel_delta = std::atof(v);
    } else if (arg == "--cov-mult") {
      const char* v = next("--cov-mult");
      if (v == nullptr) return usage(argv[0]);
      opts.cov_mult = std::atof(v);
    } else if (arg == "--advisory") {
      advisory = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "%s: unknown argument %s\n", argv[0], arg.c_str());
      return usage(argv[0]);
    } else if (base_dir.empty()) {
      base_dir = arg;
    } else if (fresh_dir.empty()) {
      fresh_dir = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (base_dir.empty() || fresh_dir.empty()) return usage(argv[0]);

  mach::diff_result result;
  std::string err;
  if (!mach::diff_trees(base_dir, fresh_dir, opts, &result, &err)) {
    std::fprintf(stderr, "bench_diff: %s\n", err.c_str());
    return 2;
  }
  const std::string md = mach::markdown_report(result, opts, base_dir, fresh_dir);
  std::fputs(md.c_str(), stdout);
  if (!md_path.empty() && !write_file(md_path, md)) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", md_path.c_str());
    return 2;
  }
  if (!json_path.empty() && !write_file(json_path, mach::verdict_json(result, opts))) {
    std::fprintf(stderr, "bench_diff: cannot write %s\n", json_path.c_str());
    return 2;
  }
  if (!result.ok() && advisory) {
    std::fprintf(stderr, "bench_diff: regressions found, but --advisory: exiting 0\n");
    return 0;
  }
  return result.ok() ? 0 : 1;
}
