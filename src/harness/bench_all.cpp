#include "harness/bench_all.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "base/env.h"
#include "harness/bench_model.h"

namespace mach {

namespace {

namespace fs = std::filesystem;

// Resolve the git SHA to stamp into the baselines: the environment wins
// (CI passes the exact commit), else ask git, else "unknown".
std::string resolve_git_sha() {
  if (const char* sha = std::getenv("MACHLOCK_GIT_SHA"); sha != nullptr && sha[0] != '\0') {
    return sha;
  }
  std::FILE* p = ::popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  char buf[64] = {0};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  ::pclose(p);
  if (!got) return "unknown";
  std::string sha = buf;
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

// Run one bench binary with MACHLOCK_BENCH_JSON=json_dir, stdout to
// /dev/null (the tables also go to the JSON; stderr stays visible).
// Returns the child's exit status, or -1 on spawn failure.
int run_bench_child(const std::string& binary, const std::string& json_dir, int bench_ms,
                    const std::string& git_sha) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    ::setenv("MACHLOCK_BENCH_JSON", json_dir.c_str(), 1);
    ::setenv("MACHLOCK_GIT_SHA", git_sha.c_str(), 1);
    if (bench_ms > 0) {
      ::setenv("MACHLOCK_BENCH_MS", std::to_string(bench_ms).c_str(), 1);
    }
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::close(devnull);
    }
    ::execl(binary.c_str(), binary.c_str(), static_cast<char*>(nullptr));
    std::fprintf(stderr, "bench_all: exec %s: %s\n", binary.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

// The single BENCH_*.json a rep wrote, or "" when absent/ambiguous.
std::string find_rep_output(const std::string& dir) {
  std::string found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0) continue;
    if (!found.empty()) return {};
    found = entry.path().string();
  }
  return ec ? std::string{} : found;
}

// Mean CoV across gated cells, for the per-bench progress line.
double mean_gated_cov(const bench_doc& doc) {
  double sum = 0;
  std::size_t n = 0;
  for (const bench_table& t : doc.tables) {
    for (const bench_row& r : t.rows) {
      for (std::size_t c = 0; c < t.directions.size() && c < r.cov.size(); ++c) {
        if (t.directions[c] != metric_dir::higher && t.directions[c] != metric_dir::lower) {
          continue;
        }
        if (r.cov[c].has_value()) {
          sum += *r.cov[c];
          ++n;
        }
      }
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

int bench_reps_from_env(int def) {
  return std::clamp(env_number("MACHLOCK_BENCH_REPS", def, 1), 1, 99);
}

bool run_bench_all(const bench_all_options& opts, bench_all_report* report, std::string* err) {
  std::error_code ec;
  std::vector<std::string> binaries;
  for (const auto& entry : fs::directory_iterator(opts.bench_dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("bench_", 0) != 0) continue;
    if (!opts.only.empty() && name.find(opts.only) == std::string::npos) continue;
    if (::access(entry.path().c_str(), X_OK) != 0) continue;
    binaries.push_back(entry.path().string());
  }
  if (ec) {
    if (err != nullptr) *err = opts.bench_dir + ": " + ec.message();
    return false;
  }
  if (binaries.empty()) {
    if (err != nullptr) *err = opts.bench_dir + ": no bench_* binaries found";
    return false;
  }
  std::sort(binaries.begin(), binaries.end());

  fs::create_directories(opts.out_dir, ec);
  if (ec) {
    if (err != nullptr) *err = opts.out_dir + ": " + ec.message();
    return false;
  }
  const std::string scratch = opts.out_dir + "/.reps";
  const std::string git_sha = resolve_git_sha();
  const int reps = std::clamp(opts.reps, 1, 99);

  for (const std::string& binary : binaries) {
    const std::string name = fs::path(binary).filename().string();
    ++report->benches_run;
    std::vector<bench_doc> docs;
    std::string bench_error;
    for (int rep = 0; rep < reps && bench_error.empty(); ++rep) {
      const std::string rep_dir = scratch + "/" + name + "/r" + std::to_string(rep);
      fs::create_directories(rep_dir, ec);
      if (ec) {
        bench_error = rep_dir + ": " + ec.message();
        break;
      }
      const int status = run_bench_child(binary, rep_dir, opts.bench_ms, git_sha);
      if (status != 0) {
        bench_error = name + " rep " + std::to_string(rep) + ": exit status " +
                      std::to_string(status);
        break;
      }
      const std::string json = find_rep_output(rep_dir);
      if (json.empty()) {
        bench_error = name + " rep " + std::to_string(rep) + ": wrote no BENCH_*.json";
        break;
      }
      bench_doc doc;
      std::string parse_err;
      if (!parse_bench_doc_file(json, &doc, &parse_err)) {
        bench_error = parse_err;
        break;
      }
      docs.push_back(std::move(doc));
    }
    if (bench_error.empty()) {
      bench_doc merged;
      if (!merge_reps(docs, &merged, &bench_error)) {
        // fallthrough to the error path below
      } else {
        // google-benchmark docs (e13) carry no env stamp; the orchestrator
        // knows the commit regardless of who wrote the per-rep JSON.
        if (merged.meta.git_sha.empty() || merged.meta.git_sha == "unknown") {
          merged.meta.git_sha = git_sha;
        }
        const std::string out_path = opts.out_dir + "/BENCH_" + merged.bench + ".json";
        const std::string body = render_bench_doc(merged);
        std::FILE* f = std::fopen(out_path.c_str(), "w");
        if (f == nullptr) {
          bench_error = out_path + ": " + std::strerror(errno);
        } else {
          const std::size_t n = std::fwrite(body.data(), 1, body.size(), f);
          const bool ok = std::fclose(f) == 0 && n == body.size();
          if (!ok) {
            bench_error = out_path + ": short write";
          } else {
            report->written.push_back(out_path);
            if (opts.verbose) {
              std::fprintf(stderr, "bench_all: %s — %d rep(s), mean gated CoV %.1f%%\n",
                           name.c_str(), reps, 100.0 * mean_gated_cov(merged));
            }
          }
        }
      }
    }
    if (!bench_error.empty()) {
      ++report->benches_failed;
      report->errors.push_back(bench_error);
      std::fprintf(stderr, "bench_all: FAILED %s: %s\n", name.c_str(), bench_error.c_str());
    }
  }
  fs::remove_all(scratch, ec);  // best-effort scratch cleanup
  return true;
}

}  // namespace mach
