#include "harness/bench_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "harness/env.h"
#include "trace/trace_export.h"

#ifndef MACHLOCK_BUILD_TYPE
#define MACHLOCK_BUILD_TYPE "unknown"
#endif

namespace mach {

namespace {

// Shortest %g rendering that round-trips: medians like 0.1*3 would
// otherwise print as 0.30000000000000004 all over the baselines.
std::string render_number(double v) {
  char buf[64];
  for (int prec : {15, 17}) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void append_string_array(std::string& out, const std::vector<std::string>& items) {
  out += "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += "\"";
    out += json_escape(items[i]);
    out += "\"";
  }
  out += "]";
}

void append_optional_array(std::string& out, const std::vector<std::optional<double>>& items) {
  out += "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += items[i].has_value() ? render_number(*items[i]) : "null";
  }
  out += "]";
}

const mini_json::value* find_kind(const mini_json::value& obj, const std::string& key,
                                  mini_json::value::kind k) {
  const mini_json::value* v = obj.find(key);
  return (v != nullptr && v->k == k) ? v : nullptr;
}

std::string string_or(const mini_json::value& obj, const std::string& key,
                      const std::string& def) {
  const mini_json::value* v = find_kind(obj, key, mini_json::value::kind::string);
  return v != nullptr ? v->str : def;
}

double number_or(const mini_json::value& obj, const std::string& key, double def) {
  const mini_json::value* v = find_kind(obj, key, mini_json::value::kind::number);
  return v != nullptr ? v->num : def;
}

bool parse_table(const mini_json::value& jt, bench_table* out, std::string* err) {
  out->caption = string_or(jt, "caption", "");
  if (const mini_json::value* cols = find_kind(jt, "columns", mini_json::value::kind::array)) {
    for (const auto& c : cols->arr) out->columns.push_back(c.str);
  }
  std::vector<metric_dir> annotated;
  if (const mini_json::value* dirs = find_kind(jt, "directions", mini_json::value::kind::array)) {
    for (const auto& d : dirs->arr) annotated.push_back(metric_dir_from_string(d.str));
  }
  out->directions = resolve_metric_dirs(out->columns, annotated);
  const mini_json::value* rows = find_kind(jt, "rows", mini_json::value::kind::array);
  if (rows == nullptr) return true;
  for (const auto& jr : rows->arr) {
    bench_row row;
    if (const mini_json::value* cells = find_kind(jr, "cells", mini_json::value::kind::array)) {
      for (const auto& c : cells->arr) row.cells.push_back(c.str);
    }
    if (const mini_json::value* vals = find_kind(jr, "values", mini_json::value::kind::array)) {
      for (const auto& v : vals->arr) {
        row.values.push_back(v.k == mini_json::value::kind::number
                                 ? std::optional<double>(v.num)
                                 : std::nullopt);
      }
    }
    row.values.resize(row.cells.size());
    if (const mini_json::value* cov = find_kind(jr, "cov", mini_json::value::kind::array)) {
      for (const auto& v : cov->arr) {
        row.cov.push_back(v.k == mini_json::value::kind::number ? std::optional<double>(v.num)
                                                                : std::nullopt);
      }
      row.cov.resize(row.cells.size());
    }
    out->rows.push_back(std::move(row));
  }
  if (err != nullptr) err->clear();
  return true;
}

// Convert a google-benchmark time to nanoseconds.
double to_ns(double t, const std::string& unit) {
  if (unit == "ns") return t;
  if (unit == "us") return t * 1e3;
  if (unit == "ms") return t * 1e6;
  if (unit == "s") return t * 1e9;
  return t;
}

// Map a rep's column index for `header`, preferring the same index.
int column_index(const bench_table& t, const std::string& header, std::size_t hint) {
  if (hint < t.columns.size() && t.columns[hint] == header) return static_cast<int>(hint);
  for (std::size_t i = 0; i < t.columns.size(); ++i) {
    if (t.columns[i] == header) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

bench_meta meta_from_environment() {
  bench_meta m;
  if (const char* sha = std::getenv("MACHLOCK_GIT_SHA"); sha != nullptr && sha[0] != '\0') {
    m.git_sha = sha;
  }
  m.build_type = MACHLOCK_BUILD_TYPE;
  m.hw_concurrency = std::thread::hardware_concurrency();
  m.bench_ms = env_number("MACHLOCK_BENCH_MS", m.bench_ms, 1);
  return m;
}

std::string row_key(const bench_table& t, std::size_t row_index) {
  if (row_index >= t.rows.size()) return "row:" + std::to_string(row_index);
  const bench_row& r = t.rows[row_index];
  std::string key;
  for (std::size_t c = 0; c < r.cells.size() && c < t.directions.size(); ++c) {
    if (t.directions[c] != metric_dir::info) continue;
    if (!key.empty()) key += " | ";
    key += r.cells[c];
  }
  return key.empty() ? "row:" + std::to_string(row_index) : key;
}

std::string render_bench_doc(const bench_doc& doc) {
  std::string out = "{\"schema\":" + std::to_string(doc.meta.schema);
  out += ",\"bench\":\"" + json_escape(doc.bench) + "\"";
  out += ",\"meta\":{";
  out += "\"git_sha\":\"" + json_escape(doc.meta.git_sha) + "\"";
  out += ",\"build_type\":\"" + json_escape(doc.meta.build_type) + "\"";
  out += ",\"source\":\"" + json_escape(doc.meta.source) + "\"";
  out += ",\"hw_concurrency\":" + std::to_string(doc.meta.hw_concurrency);
  out += ",\"reps\":" + std::to_string(doc.meta.reps);
  out += ",\"bench_ms\":" + std::to_string(doc.meta.bench_ms);
  out += "},\"tables\":[";
  for (std::size_t t = 0; t < doc.tables.size(); ++t) {
    const bench_table& bt = doc.tables[t];
    out += t == 0 ? "\n" : ",\n";
    out += "{\"caption\":\"" + json_escape(bt.caption) + "\"";
    out += ",\"columns\":";
    append_string_array(out, bt.columns);
    out += ",\"directions\":[";
    for (std::size_t c = 0; c < bt.directions.size(); ++c) {
      if (c != 0) out += ",";
      out += "\"";
      out += to_string(bt.directions[c]);
      out += "\"";
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < bt.rows.size(); ++r) {
      const bench_row& row = bt.rows[r];
      if (r != 0) out += ",";
      out += "\n{\"cells\":";
      append_string_array(out, row.cells);
      out += ",\"values\":";
      append_optional_array(out, row.values);
      const bool any_cov =
          std::any_of(row.cov.begin(), row.cov.end(), [](const auto& c) { return c.has_value(); });
      if (any_cov) {
        out += ",\"cov\":";
        append_optional_array(out, row.cov);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

bool normalize_google_benchmark(const mini_json::value& gb, const std::string& bench_name,
                                bench_doc* out, std::string* err) {
  const mini_json::value* benches = find_kind(gb, "benchmarks", mini_json::value::kind::array);
  if (benches == nullptr) {
    if (err != nullptr) *err = "google-benchmark JSON without a \"benchmarks\" array";
    return false;
  }
  out->bench = bench_name;
  out->meta = meta_from_environment();
  out->meta.source = "google-benchmark";
  if (const mini_json::value* ctx = find_kind(gb, "context", mini_json::value::kind::object)) {
    const double cpus = number_or(*ctx, "num_cpus", 0);
    if (cpus > 0) out->meta.hw_concurrency = static_cast<unsigned>(cpus);
  }
  bench_table t;
  t.caption = "E13: primitive operation costs (normalized from google-benchmark)";
  t.columns = {"name", "real_time (ns)", "cpu_time (ns)", "iterations"};
  t.directions = {metric_dir::info, metric_dir::lower, metric_dir::lower, metric_dir::stat};
  for (const auto& b : benches->arr) {
    if (b.k != mini_json::value::kind::object) continue;
    // Skip aggregate rows (mean/median/stddev) if repetitions were used;
    // bench_all computes its own aggregates.
    if (b.find("aggregate_name") != nullptr) continue;
    const std::string unit = string_or(b, "time_unit", "ns");
    const double real_ns = to_ns(number_or(b, "real_time", 0), unit);
    const double cpu_ns = to_ns(number_or(b, "cpu_time", 0), unit);
    const double iters = number_or(b, "iterations", 0);
    bench_row row;
    row.cells = {string_or(b, "name", "?"), render_number(real_ns), render_number(cpu_ns),
                 render_number(iters)};
    row.values = {std::nullopt, real_ns, cpu_ns, iters};
    t.rows.push_back(std::move(row));
  }
  out->tables.push_back(std::move(t));
  return true;
}

bool parse_bench_doc(const std::string& json_text, const std::string& fallback_bench_name,
                     bench_doc* out, std::string* err) {
  mini_json::value root;
  if (!mini_json::parse(json_text, &root, err)) return false;
  if (root.k != mini_json::value::kind::object) {
    if (err != nullptr) *err = "top level is not an object";
    return false;
  }
  if (root.find("benchmarks") != nullptr) {
    return normalize_google_benchmark(root, fallback_bench_name, out, err);
  }
  *out = bench_doc{};
  out->bench = string_or(root, "bench", fallback_bench_name);
  out->meta.schema = static_cast<int>(number_or(root, "schema", 1));
  if (const mini_json::value* meta = find_kind(root, "meta", mini_json::value::kind::object)) {
    out->meta.git_sha = string_or(*meta, "git_sha", "unknown");
    out->meta.build_type = string_or(*meta, "build_type", "unknown");
    out->meta.source = string_or(*meta, "source", "harness");
    out->meta.hw_concurrency = static_cast<unsigned>(number_or(*meta, "hw_concurrency", 0));
    out->meta.reps = static_cast<int>(number_or(*meta, "reps", 1));
    out->meta.bench_ms = static_cast<int>(number_or(*meta, "bench_ms", 0));
  }
  const mini_json::value* tables = find_kind(root, "tables", mini_json::value::kind::array);
  if (tables == nullptr) {
    if (err != nullptr) *err = "no \"tables\" array";
    return false;
  }
  for (const auto& jt : tables->arr) {
    bench_table t;
    if (!parse_table(jt, &t, err)) return false;
    out->tables.push_back(std::move(t));
  }
  return true;
}

bool parse_bench_doc_file(const std::string& path, bench_doc* out, std::string* err) {
  std::string name = path;
  if (const std::size_t slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (name.rfind("BENCH_", 0) == 0) name = name.substr(6);
  if (const std::size_t dot = name.rfind(".json"); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (err != nullptr) *err = path + ": cannot open";
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string parse_err;
  if (parse_bench_doc(text, name, out, &parse_err)) return true;
  if (err != nullptr) *err = path + ": " + parse_err;
  return false;
}

bool merge_reps(const std::vector<bench_doc>& docs, bench_doc* out, std::string* err) {
  if (docs.empty()) {
    if (err != nullptr) *err = "no repetition docs to merge";
    return false;
  }
  for (const bench_doc& d : docs) {
    if (d.bench != docs[0].bench) {
      if (err != nullptr) {
        *err = "mismatched bench names: " + docs[0].bench + " vs " + d.bench;
      }
      return false;
    }
  }
  *out = bench_doc{};
  out->bench = docs[0].bench;
  out->meta = docs[0].meta;
  out->meta.reps = static_cast<int>(docs.size());

  // Union of tables by caption, in first-seen order.
  std::vector<std::string> captions;
  for (const bench_doc& d : docs) {
    for (const bench_table& t : d.tables) {
      if (std::find(captions.begin(), captions.end(), t.caption) == captions.end()) {
        captions.push_back(t.caption);
      }
    }
  }
  for (const std::string& caption : captions) {
    // Reps of this table across docs (a bench emits each caption once).
    std::vector<const bench_table*> reps;
    for (const bench_doc& d : docs) {
      for (const bench_table& t : d.tables) {
        if (t.caption == caption) {
          reps.push_back(&t);
          break;
        }
      }
    }
    bench_table merged;
    merged.caption = caption;
    merged.columns = reps[0]->columns;
    merged.directions = reps[0]->directions;

    // Union of row keys in first-seen order.
    std::vector<std::string> keys;
    for (const bench_table* t : reps) {
      for (std::size_t r = 0; r < t->rows.size(); ++r) {
        const std::string k = row_key(*t, r);
        if (std::find(keys.begin(), keys.end(), k) == keys.end()) keys.push_back(k);
      }
    }
    for (const std::string& key : keys) {
      // This key's row in each rep that has it.
      std::vector<std::pair<const bench_table*, const bench_row*>> rows;
      for (const bench_table* t : reps) {
        for (std::size_t r = 0; r < t->rows.size(); ++r) {
          if (row_key(*t, r) == key) {
            rows.emplace_back(t, &t->rows[r]);
            break;
          }
        }
      }
      bench_row merged_row;
      merged_row.cells = rows[0].second->cells;
      merged_row.cells.resize(merged.columns.size());
      merged_row.values.assign(merged.columns.size(), std::nullopt);
      merged_row.cov.assign(merged.columns.size(), std::nullopt);
      for (std::size_t c = 0; c < merged.columns.size(); ++c) {
        std::vector<double> samples;
        std::vector<const std::string*> sample_cells;
        for (const auto& [t, row] : rows) {
          const int ci = column_index(*t, merged.columns[c], c);
          if (ci < 0 || static_cast<std::size_t>(ci) >= row->values.size()) continue;
          if (const auto& v = row->values[static_cast<std::size_t>(ci)]; v.has_value()) {
            samples.push_back(*v);
            sample_cells.push_back(&row->cells[static_cast<std::size_t>(ci)]);
          }
        }
        if (samples.empty()) continue;
        std::vector<double> sorted = samples;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t mid = sorted.size() / 2;
        const double median = sorted.size() % 2 == 1
                                  ? sorted[mid]
                                  : (sorted[mid - 1] + sorted[mid]) / 2.0;
        double mean = 0;
        for (double v : samples) mean += v;
        mean /= static_cast<double>(samples.size());
        double var = 0;
        for (double v : samples) var += (v - mean) * (v - mean);
        var /= static_cast<double>(samples.size());
        const double cov = mean != 0.0 ? std::sqrt(var) / std::fabs(mean) : 0.0;
        merged_row.values[c] = median;
        merged_row.cov[c] = cov;
        // Show the string cell of the rep closest to the median so the
        // committed baseline stays human-readable ("1,234" not 1234.0).
        std::size_t best = 0;
        for (std::size_t i = 1; i < samples.size(); ++i) {
          if (std::fabs(samples[i] - median) < std::fabs(samples[best] - median)) best = i;
        }
        merged_row.cells[c] = *sample_cells[best];
      }
      merged.rows.push_back(std::move(merged_row));
    }
    out->tables.push_back(std::move(merged));
  }
  return true;
}

}  // namespace mach
