#include "harness/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <tuple>

#include "trace/trace_export.h"

namespace mach {

namespace {

namespace fs = std::filesystem;

// Sentinel relative delta for "appeared from zero" — large enough to gate,
// finite so it renders as a valid JSON number.
constexpr double kFromZeroDelta = 1e9;

const bench_table* find_table(const bench_doc& d, const std::string& caption) {
  for (const bench_table& t : d.tables) {
    if (t.caption == caption) return &t;
  }
  return nullptr;
}

int find_row(const bench_table& t, const std::string& key) {
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    if (row_key(t, r) == key) return static_cast<int>(r);
  }
  return -1;
}

int find_column(const bench_table& t, const std::string& header) {
  for (std::size_t c = 0; c < t.columns.size(); ++c) {
    if (t.columns[c] == header) return static_cast<int>(c);
  }
  return -1;
}

std::optional<double> cell_cov(const bench_row& row, std::size_t c) {
  return c < row.cov.size() ? row.cov[c] : std::nullopt;
}

std::string pct(double v) {
  char buf[64];
  if (std::fabs(v) >= 1e6) return v > 0 ? "+inf%" : "-inf%";
  std::snprintf(buf, sizeof buf, "%+.1f%%", v * 100.0);
  return buf;
}

std::string short_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void append_delta_array(std::string& out, const std::vector<cell_delta>& deltas) {
  out += "[";
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    const cell_delta& d = deltas[i];
    if (i != 0) out += ",";
    out += "\n  {\"bench\":\"" + json_escape(d.bench) + "\"";
    out += ",\"table\":\"" + json_escape(d.caption) + "\"";
    out += ",\"row\":\"" + json_escape(d.row) + "\"";
    out += ",\"column\":\"" + json_escape(d.column) + "\"";
    out += ",\"direction\":\"" + std::string(to_string(d.dir)) + "\"";
    out += ",\"base\":" + short_num(d.base);
    out += ",\"fresh\":" + short_num(d.fresh);
    out += ",\"rel_delta\":" + short_num(d.rel_delta);
    out += ",\"threshold\":" + short_num(d.threshold);
    out += ",\"kind\":\"" + std::string(to_string(d.kind)) + "\"}";
  }
  out += "]";
}

void append_name_array(std::string& out, const std::vector<std::string>& names) {
  out += "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i != 0) out += ",";
    out.append("\"").append(json_escape(names[i])).append("\"");
  }
  out += "]";
}

// Row keys join info cells with " | ", and captions may carry "|" too —
// escape them or they become extra markdown columns.
std::string md_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

void md_delta_table(std::string& out, const std::vector<cell_delta>& deltas) {
  out += "| bench | table | row | metric | dir | base | fresh | delta | threshold |\n";
  out += "|---|---|---|---|---|---|---|---|---|\n";
  for (const cell_delta& d : deltas) {
    out += "| " + md_escape(d.bench) + " | " + md_escape(d.caption) + " | " + md_escape(d.row) +
           " | " + md_escape(d.column) + " | " + to_string(d.dir) + " | " + short_num(d.base) +
           " | " + short_num(d.fresh) + " | " + pct(d.rel_delta) + " | " + pct(d.threshold) +
           " |\n";
  }
}

void md_name_list(std::string& out, const char* title, const std::vector<std::string>& names) {
  if (names.empty()) return;
  out += "\n**";
  out += title;
  out += ":**\n\n";
  for (const std::string& n : names) out += "- `" + n + "`\n";
}

}  // namespace

const char* to_string(delta_kind k) {
  switch (k) {
    case delta_kind::improvement: return "improvement";
    case delta_kind::regression: return "regression";
    case delta_kind::within_noise: return "within_noise";
  }
  return "within_noise";
}

void diff_docs(const bench_doc& base, const bench_doc& fresh, const diff_options& opts,
               diff_result* out) {
  // Tables present only on one side.
  for (const bench_table& t : base.tables) {
    if (find_table(fresh, t.caption) == nullptr) {
      out->removed_tables.push_back(base.bench + ": " + t.caption);
    }
  }
  for (const bench_table& t : fresh.tables) {
    if (find_table(base, t.caption) == nullptr) {
      out->added_tables.push_back(fresh.bench + ": " + t.caption);
    }
  }
  for (const bench_table& bt : base.tables) {
    const bench_table* ft = find_table(fresh, bt.caption);
    if (ft == nullptr) continue;
    // Rows present only on one side.
    for (std::size_t r = 0; r < bt.rows.size(); ++r) {
      if (find_row(*ft, row_key(bt, r)) < 0) {
        out->removed_rows.push_back(base.bench + ": " + bt.caption + ": " + row_key(bt, r));
      }
    }
    for (std::size_t r = 0; r < ft->rows.size(); ++r) {
      if (find_row(bt, row_key(*ft, r)) < 0) {
        out->added_rows.push_back(fresh.bench + ": " + bt.caption + ": " + row_key(*ft, r));
      }
    }
    for (std::size_t br = 0; br < bt.rows.size(); ++br) {
      const std::string key = row_key(bt, br);
      const int fr = find_row(*ft, key);
      if (fr < 0) continue;
      const bench_row& brow = bt.rows[br];
      const bench_row& frow = ft->rows[static_cast<std::size_t>(fr)];
      for (std::size_t bc = 0; bc < bt.columns.size(); ++bc) {
        // The baseline's direction annotation governs the comparison: a
        // PR that flips a column's direction refreshes the baseline too.
        const metric_dir dir = bc < bt.directions.size() ? bt.directions[bc] : metric_dir::stat;
        if (dir != metric_dir::higher && dir != metric_dir::lower) continue;
        const int fc = find_column(*ft, bt.columns[bc]);
        if (fc < 0) continue;
        if (bc >= brow.values.size() || static_cast<std::size_t>(fc) >= frow.values.size()) {
          continue;
        }
        const auto& bv = brow.values[bc];
        const auto& fv = frow.values[static_cast<std::size_t>(fc)];
        if (!bv.has_value() || !fv.has_value()) continue;
        ++out->gated_cells;

        cell_delta d;
        d.bench = base.bench;
        d.caption = bt.caption;
        d.row = key;
        d.column = bt.columns[bc];
        d.dir = dir;
        d.base = *bv;
        d.fresh = *fv;
        if (*bv == 0.0) {
          d.rel_delta = *fv == 0.0 ? 0.0 : std::copysign(kFromZeroDelta, *fv);
        } else {
          d.rel_delta = (*fv - *bv) / std::fabs(*bv);
        }
        const double cov_b = cell_cov(brow, bc).value_or(0.0);
        const double cov_f = cell_cov(frow, static_cast<std::size_t>(fc)).value_or(0.0);
        d.threshold = std::max(opts.min_rel_delta, opts.cov_mult * std::max(cov_b, cov_f));
        if (std::fabs(d.rel_delta) <= d.threshold) {
          d.kind = delta_kind::within_noise;
          ++out->within_noise;
        } else {
          const bool got_better = (dir == metric_dir::higher) == (d.rel_delta > 0.0);
          d.kind = got_better ? delta_kind::improvement : delta_kind::regression;
          (got_better ? out->improvements : out->regressions).push_back(d);
        }
      }
    }
  }
  auto by_magnitude = [](const cell_delta& a, const cell_delta& b) {
    if (std::fabs(a.rel_delta) != std::fabs(b.rel_delta)) {
      return std::fabs(a.rel_delta) > std::fabs(b.rel_delta);
    }
    return std::tie(a.bench, a.caption, a.row, a.column) <
           std::tie(b.bench, b.caption, b.row, b.column);
  };
  std::sort(out->regressions.begin(), out->regressions.end(), by_magnitude);
  std::sort(out->improvements.begin(), out->improvements.end(), by_magnitude);
}

bool diff_trees(const std::string& base_dir, const std::string& fresh_dir,
                const diff_options& opts, diff_result* out, std::string* err) {
  auto list_tree = [err](const std::string& dir,
                         std::map<std::string, std::string>* files) -> bool {
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
      if (err != nullptr) *err = dir + ": " + ec.message();
      return false;
    }
    for (const auto& entry : it) {
      if (!entry.is_regular_file()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind("BENCH_", 0) == 0 && name.size() > 5 &&
          name.compare(name.size() - 5, 5, ".json") == 0) {
        (*files)[name] = entry.path().string();
      }
    }
    return true;
  };
  std::map<std::string, std::string> base_files, fresh_files;
  if (!list_tree(base_dir, &base_files) || !list_tree(fresh_dir, &fresh_files)) return false;
  // A tree with nothing to compare is a broken invocation (wrong path, run
  // that produced no output), not a clean "OK — 0 cells" verdict.
  if (base_files.empty()) {
    if (err != nullptr) *err = base_dir + ": no BENCH_*.json files";
    return false;
  }
  if (fresh_files.empty()) {
    if (err != nullptr) *err = fresh_dir + ": no BENCH_*.json files";
    return false;
  }
  for (const auto& [name, path] : base_files) {
    if (fresh_files.count(name) == 0) {
      // Still parse it: a corrupt baseline should fail loudly, not read as
      // "bench removed".
      bench_doc removed;
      if (!parse_bench_doc_file(path, &removed, err)) return false;
      out->removed_benches.push_back(name);
      continue;
    }
    bench_doc base, fresh;
    if (!parse_bench_doc_file(path, &base, err)) return false;
    if (!parse_bench_doc_file(fresh_files.at(name), &fresh, err)) return false;
    diff_docs(base, fresh, opts, out);
  }
  for (const auto& [name, path] : fresh_files) {
    if (base_files.count(name) == 0) {
      // Same rule for fresh-only files: a truncated or empty BENCH file
      // must not be silently reported as an added bench.
      bench_doc added;
      if (!parse_bench_doc_file(path, &added, err)) return false;
      out->added_benches.push_back(name);
    }
  }
  return true;
}

std::string verdict_json(const diff_result& r, const diff_options& opts) {
  std::string out = "{\"status\":\"";
  out += r.ok() ? "ok" : "regression";
  out += "\",\"options\":{\"min_rel_delta\":" + short_num(opts.min_rel_delta) +
         ",\"cov_mult\":" + short_num(opts.cov_mult) + "}";
  out += ",\"counts\":{\"gated_cells\":" + std::to_string(r.gated_cells);
  out += ",\"regressions\":" + std::to_string(r.regressions.size());
  out += ",\"improvements\":" + std::to_string(r.improvements.size());
  out += ",\"within_noise\":" + std::to_string(r.within_noise) + "}";
  out += ",\"regressions\":";
  append_delta_array(out, r.regressions);
  out += ",\"improvements\":";
  append_delta_array(out, r.improvements);
  out += ",\"added_benches\":";
  append_name_array(out, r.added_benches);
  out += ",\"removed_benches\":";
  append_name_array(out, r.removed_benches);
  out += ",\"added_tables\":";
  append_name_array(out, r.added_tables);
  out += ",\"removed_tables\":";
  append_name_array(out, r.removed_tables);
  out += ",\"added_rows\":";
  append_name_array(out, r.added_rows);
  out += ",\"removed_rows\":";
  append_name_array(out, r.removed_rows);
  out += "}\n";
  return out;
}

std::string markdown_report(const diff_result& r, const diff_options& opts,
                            const std::string& base_label, const std::string& fresh_label) {
  std::string out = "# bench_diff: " + base_label + " → " + fresh_label + "\n\n";
  out += r.ok() ? "**Verdict: OK**" : "**Verdict: REGRESSION**";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                " — %zu gated cells: %zu regression(s), %zu improvement(s), %zu within noise.\n",
                r.gated_cells, r.regressions.size(), r.improvements.size(), r.within_noise);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\nNoise model: |delta| gates only beyond max(%.0f%%, %.1f x measured CoV) per "
                "cell.\n",
                opts.min_rel_delta * 100.0, opts.cov_mult);
  out += buf;
  if (!r.regressions.empty()) {
    out += "\n## Regressions\n\n";
    md_delta_table(out, r.regressions);
  }
  if (!r.improvements.empty()) {
    out += "\n## Improvements\n\n";
    md_delta_table(out, r.improvements);
  }
  if (!r.added_benches.empty() || !r.removed_benches.empty() || !r.added_tables.empty() ||
      !r.removed_tables.empty() || !r.added_rows.empty() || !r.removed_rows.empty()) {
    out += "\n## Structural changes (not gated)\n";
    md_name_list(out, "Benches added", r.added_benches);
    md_name_list(out, "Benches removed", r.removed_benches);
    md_name_list(out, "Tables added", r.added_tables);
    md_name_list(out, "Tables removed", r.removed_tables);
    md_name_list(out, "Rows added", r.added_rows);
    md_name_list(out, "Rows removed", r.removed_rows);
  }
  return out;
}

}  // namespace mach
