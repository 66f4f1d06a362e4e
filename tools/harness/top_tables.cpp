#include "harness/top_tables.h"

#include <algorithm>
#include <string>

#include "harness/table.h"

namespace mach {

namespace {

// "12.3us" style cell; "-" when the histogram never sampled (profiling is
// ktrace-gated, so zero samples is the common disabled case).
std::string ns_cell(std::uint64_t samples, std::uint64_t nanos) {
  if (samples == 0) return "-";
  if (nanos < 10'000) return table::num(nanos) + "ns";
  if (nanos < 10'000'000) return table::num(static_cast<double>(nanos) / 1e3, 1) + "us";
  return table::num(static_cast<double>(nanos) / 1e6, 1) + "ms";
}

}  // namespace

void print_lockstat_top(const std::vector<lock_stat_entry>& rows, std::size_t max_rows) {
  table t("lockstat: most contended lock names (" + std::to_string(rows.size()) + " classes)");
  t.columns({"lock", "kind", "acquisitions", "contended", "hold p50", "hold p99", "wait p50",
             "wait p99"});
  for (std::size_t i = 0; i < rows.size() && i < max_rows; ++i) {
    const lock_stat_entry& e = rows[i];
    t.row({e.name, e.is_complex ? "complex" : "simple", table::num(e.acquisitions),
           table::num(e.contended), ns_cell(e.hold_samples, e.hold_p50_nanos),
           ns_cell(e.hold_samples, e.hold_p99_nanos), ns_cell(e.wait_samples, e.wait_p50_nanos),
           ns_cell(e.wait_samples, e.wait_p99_nanos)});
  }
  t.print();
}

void print_kmon_top(std::vector<kmon::metric_sample> samples, std::size_t max_rows) {
  using kmon::metric_kind;
  using kmon::metric_sample;
  // Top-style: largest values first; histograms rank by count.
  std::stable_sort(samples.begin(), samples.end(),
                   [](const metric_sample& a, const metric_sample& b) {
                     const double av = a.kind == metric_kind::histogram
                                           ? static_cast<double>(a.hist.count())
                                           : a.value;
                     const double bv = b.kind == metric_kind::histogram
                                           ? static_cast<double>(b.hist.count())
                                           : b.value;
                     return av > bv;
                   });
  table t("kmon: kernel metrics (" + std::to_string(samples.size()) +
          " registered, largest first)");
  t.columns({"metric", "kind", "value", "p50", "p99", "max"});
  std::size_t rows = 0;
  for (const metric_sample& s : samples) {
    if (max_rows != 0 && rows++ >= max_rows) break;
    std::string name = s.name;
    if (!s.label_key.empty()) {
      name += "{" + s.label_key + "=\"" + kmon::prom_escape_label_value(s.label_value) + "\"}";
    }
    if (s.kind == metric_kind::histogram) {
      t.row({name, "histogram", table::num(s.hist.count()),
             table::num(s.hist.quantile_nanos(0.5)) + "ns",
             table::num(s.hist.quantile_nanos(0.99)) + "ns",
             table::num(s.hist.max_nanos()) + "ns"});
    } else {
      t.row({name, kmon::to_string(s.kind),
             table::num(s.value, s.value == static_cast<std::int64_t>(s.value) ? 0 : 2), "-", "-",
             "-"});
    }
  }
  t.print();
}

}  // namespace mach
