#include "harness/table.h"

#include <cstdio>
#include <sstream>

#include "base/env.h"
#include "harness/bench_json.h"

namespace mach {

table::table(std::string caption) : caption_(std::move(caption)) {}

table& table::columns(std::vector<std::string> headers) {
  headers_ = std::move(headers);
  return *this;
}

table& table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

table& table::dirs(std::vector<metric_dir> directions) {
  dirs_ = std::move(directions);
  return *this;
}

std::string table::num(std::uint64_t v) {
  // Group digits for readability: 1234567 → "1,234,567".
  std::string raw = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return {out.rbegin(), out.rend()};
}

std::string table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string table::ratio(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2fx", v);
  return buf;
}

void table::print() const {
  bench_json::record_table(caption_, headers_, dirs_, rows_);
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
      if (r[i].size() > widths[i]) widths[i] = r[i].size();
    }
  }
  std::printf("\n== %s ==\n", caption_.c_str());
  auto print_row = [&](const std::vector<std::string>& cells) {
    std::printf(" ");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& c = i < cells.size() ? cells[i] : std::string{};
      std::printf(" %-*s", static_cast<int>(widths[i]), c.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    rule += std::string(widths[i] + 1, '-');
  }
  std::printf("  %s\n", rule.c_str());
  for (const auto& r : rows_) print_row(r);
  std::fflush(stdout);
}

int bench_duration_ms(int def_ms) { return env_number("MACHLOCK_BENCH_MS", def_ms, 1); }

}  // namespace mach
