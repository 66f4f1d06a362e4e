// Tests for the kmon metrics registry (src/metrics): metric types, the
// disabled fast path, the registry snapshot, both exporters (validated by
// in-file mini-parsers), counter rates off the flight ring, and the
// bench_json machine-readable table dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_json.h"
#include "harness/mini_json.h"
#include "harness/table.h"
#include "metrics/kmetrics.h"
#include "metrics/kmon.h"
#include "prof/kprof.h"
#include "sched/event.h"
#include "sched/kthread.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Every test restores the global switch to disabled (the process default)
// so tests stay order-independent.
class kmon_scope {
 public:
  explicit kmon_scope(bool on = true) {
    if (on) kmon::enable();
  }
  ~kmon_scope() { kmon::disable(); }
};

// ---------------------------------------------------------------------------
// Metric types.

TEST(KmonCounter, DisabledUpdateIsNoOp) {
  kmon::disable();
  kmon::counter c("machlock_test_disabled_total", "test");
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);
}

TEST(KmonCounter, AccumulatesWhenEnabled) {
  kmon_scope scope;
  kmon::counter c("machlock_test_counter_total", "test");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(KmonCounter, StripesSumAcrossThreads) {
  kmon_scope scope;
  kmon::counter c("machlock_test_striped_total", "test");
  constexpr int threads = 8;
  constexpr int per_thread = 10000;
  std::vector<std::thread> ts;
  for (int i = 0; i < threads; ++i) {
    ts.emplace_back([&c] {
      for (int n = 0; n < per_thread; ++n) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(threads) * per_thread);
}

TEST(KmonGauge, AddSubSetAndDisabledGate) {
  kmon::disable();
  kmon::gauge g("machlock_test_gauge", "test");
  g.add(5);
  EXPECT_EQ(g.value(), 0);  // disabled: no store
  kmon_scope scope;
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
}

TEST(KmonCallbackGauge, EvaluatesLazilyAtSnapshot) {
  kmon_scope scope;
  std::atomic<int> level{11};
  kmon::callback_gauge g("machlock_test_cbgauge", "test",
                         [&level] { return static_cast<double>(level.load()); }, "inst", "a");
  kmon::metric_sample s;
  g.sample_into(s);
  EXPECT_DOUBLE_EQ(s.value, 11.0);
  level.store(23);
  g.sample_into(s);
  EXPECT_DOUBLE_EQ(s.value, 23.0);
}

TEST(KmonHistogram, RecordsAndMergesStripes) {
  kmon_scope scope;
  kmon::histogram h("machlock_test_hist_nanos", "test");
  // Record from several threads so multiple stripes are touched.
  std::vector<std::thread> ts;
  for (int i = 0; i < 4; ++i) {
    ts.emplace_back([&h] {
      for (int n = 0; n < 100; ++n) h.record(1000);
    });
  }
  for (auto& t : ts) t.join();
  h.record(1u << 20);  // one large sample drives max
  latency_histogram m = h.merged();
  EXPECT_EQ(m.count(), 401u);
  EXPECT_EQ(m.max_nanos(), 1u << 20);
  h.reset();
  EXPECT_EQ(h.merged().count(), 0u);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(KmonRegistry, SelfRegistrationAndSortedSnapshot) {
  kmon_scope scope;
  const std::size_t before = kmon::registry::instance().live_metrics();
  {
    kmon::counter b("machlock_ztest_b_total", "test");
    kmon::counter a("machlock_ztest_a_total", "test");
    EXPECT_EQ(kmon::registry::instance().live_metrics(), before + 2);
    b.inc(2);
    a.inc(1);
    auto snap = kmon::registry::instance().snapshot();
    // Sorted by name.
    for (std::size_t i = 1; i < snap.size(); ++i) {
      EXPECT_LE(snap[i - 1].name, snap[i].name) << "snapshot not sorted at " << snap[i].name;
    }
    double va = -1, vb = -1;
    for (const auto& s : snap) {
      if (s.name == "machlock_ztest_a_total") va = s.value;
      if (s.name == "machlock_ztest_b_total") vb = s.value;
    }
    EXPECT_DOUBLE_EQ(va, 1.0);
    EXPECT_DOUBLE_EQ(vb, 2.0);
  }
  EXPECT_EQ(kmon::registry::instance().live_metrics(), before);  // unregistered
}

TEST(KmonRegistry, CanonicalMetricsObserveSubsystemActivity) {
  kmon_scope scope;
  const std::uint64_t blocks0 = kmet().sched_blocks.value() + kmet().sched_blocks_short_circuited.value();
  const std::uint64_t wakeups0 = kmet().sched_wakeups.value() + kmet().sched_wakeups_no_waiter.value();
  int ev = 0;
  std::atomic<bool> ready{false};
  auto t = kthread::spawn("kmon-waiter", [&] {
    assert_wait(&ev);
    ready.store(true);
    thread_block();
  });
  while (!ready.load()) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);
  thread_wakeup(&ev);
  t->join();
  EXPECT_GT(kmet().sched_blocks.value() + kmet().sched_blocks_short_circuited.value(), blocks0);
  EXPECT_GT(kmet().sched_wakeups.value() + kmet().sched_wakeups_no_waiter.value(), wakeups0);

  // The canonical set appears in the snapshot even while idle.
  auto snap = kmon::registry::instance().snapshot();
  auto has = [&snap](const char* name) {
    for (const auto& s : snap)
      if (s.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("machlock_sched_blocks_total"));
  EXPECT_TRUE(has("machlock_sched_wakeups_total"));
  EXPECT_TRUE(has("machlock_sched_block_nanos"));
  EXPECT_TRUE(has("machlock_kern_zalloc_allocs_total"));
  EXPECT_TRUE(has("machlock_vm_shootdown_rounds_total"));
  EXPECT_TRUE(has("machlock_smp_barrier_rounds_total"));
  EXPECT_TRUE(has("machlock_ipc_rpcs_total"));
}

// ---------------------------------------------------------------------------
// Mini Prometheus text-exposition parser (exporter contract check).

struct prom_sample {
  std::string name;    // sample name without the label block
  std::string labels;  // raw text between { and }, empty if none
  double value = 0.0;
};

struct prom_doc {
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::vector<prom_sample> samples;
  std::string error;

  bool parse(const std::string& text) {
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty()) continue;
      if (line.rfind("# HELP ", 0) == 0) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream ls(line.substr(7));
        std::string fam, ty;
        ls >> fam >> ty;
        if (ty != "counter" && ty != "gauge" && ty != "histogram") {
          error = "line " + std::to_string(lineno) + ": bad TYPE " + ty;
          return false;
        }
        types[fam] = ty;
        continue;
      }
      if (line[0] == '#') {
        error = "line " + std::to_string(lineno) + ": unknown comment";
        return false;
      }
      prom_sample s;
      std::size_t name_end = line.find_first_of("{ ");
      if (name_end == std::string::npos) {
        error = "line " + std::to_string(lineno) + ": no value";
        return false;
      }
      s.name = line.substr(0, name_end);
      std::size_t value_start = name_end;
      if (line[name_end] == '{') {
        std::size_t close = line.find('}', name_end);
        if (close == std::string::npos) {
          error = "line " + std::to_string(lineno) + ": unterminated label block";
          return false;
        }
        s.labels = line.substr(name_end + 1, close - name_end - 1);
        value_start = close + 1;
      }
      const std::string value_text = line.substr(value_start);
      char* end = nullptr;
      s.value = std::strtod(value_text.c_str(), &end);
      if (end == value_text.c_str() && value_text.find("+Inf") == std::string::npos) {
        error = "line " + std::to_string(lineno) + ": unparseable value '" + value_text + "'";
        return false;
      }
      samples.push_back(std::move(s));
    }
    return true;
  }
};

// Validate the Prometheus invariants kmon promises: counters end _total,
// histogram buckets are cumulative and close with +Inf == _count.
void check_prom_invariants(const prom_doc& doc) {
  for (const auto& [fam, ty] : doc.types) {
    if (ty == "counter") {
      EXPECT_TRUE(fam.size() > 6 && fam.compare(fam.size() - 6, 6, "_total") == 0)
          << "counter family not suffixed _total: " << fam;
    }
    if (ty != "histogram") continue;
    double prev = -1.0, inf_value = -1.0, count_value = -2.0;
    for (const auto& s : doc.samples) {
      if (s.name == fam + "_bucket") {
        if (s.labels.find("+Inf") != std::string::npos) {
          inf_value = s.value;
        } else {
          EXPECT_GE(s.value, prev) << fam << " buckets not cumulative";
          prev = s.value;
        }
      } else if (s.name == fam + "_count") {
        count_value = s.value;
      }
    }
    EXPECT_GE(inf_value, prev) << fam << " +Inf bucket below last finite bucket";
    EXPECT_DOUBLE_EQ(inf_value, count_value) << fam << " +Inf bucket != _count";
  }
}

TEST(KmonExport, PrometheusTextParsesAndHoldsInvariants) {
  kmon_scope scope;
  kmet().sched_wakeups.inc(3);
  kmet().sched_block_nanos.record(1500);
  kmet().sched_block_nanos.record(3000000);
  auto snap = kmon::registry::instance().snapshot();
  const std::string text = kmon::export_prometheus(snap);
  prom_doc doc;
  ASSERT_TRUE(doc.parse(text)) << doc.error;
  ASSERT_FALSE(doc.samples.empty());
  check_prom_invariants(doc);
  EXPECT_EQ(doc.types.at("machlock_sched_wakeups_total"), "counter");
  EXPECT_EQ(doc.types.at("machlock_sched_wait_queue_depth"), "gauge");
  EXPECT_EQ(doc.types.at("machlock_sched_block_nanos"), "histogram");
}

TEST(KmonExport, PrometheusEscapesHostileLabelValues) {
  // Exposition format: backslash, double-quote, and line feed in a label
  // value must be escaped or the sample line (and every line after it)
  // is corrupt.
  const std::string hostile = "a\\b\"c\nd";
  EXPECT_EQ(kmon::prom_escape_label_value(hostile), "a\\\\b\\\"c\\nd");

  kmon::metric_sample s;
  s.name = "machlock_test_hostile";
  s.help = "test";
  s.kind = kmon::metric_kind::gauge;
  s.label_key = "zone";
  s.label_value = hostile;
  s.value = 1.0;
  const std::string text = kmon::export_prometheus({s});
  EXPECT_NE(text.find("machlock_test_hostile{zone=\"a\\\\b\\\"c\\nd\"} 1"), std::string::npos)
      << text;
  // No line may carry an unescaped quote-breaking payload: every sample
  // line must still have the `name{labels} value` shape with one pair of
  // UNESCAPED quotes around the value (a backslash-escaped \" inside the
  // value does not count).
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    int unescaped = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;  // skip the escaped character, whatever it is
      } else if (line[i] == '"') {
        ++unescaped;
      }
    }
    EXPECT_EQ(unescaped % 2, 0) << "unbalanced quotes: " << line;
  }

  // The tools' print_kmon_top uses the same escaping for its key; the
  // flight ring's value keys do too (prom_sample_name). A labelled
  // live metric with a hostile value must round-trip the registry
  // snapshot unharmed (escaping happens at render time, not storage).
  kmon::callback_gauge g("machlock_test_hostile_live", "test", [] { return 2.0; }, "zone",
                         hostile);
  bool found = false;
  for (const auto& snap : kmon::registry::instance().snapshot()) {
    if (snap.name == "machlock_test_hostile_live") {
      found = true;
      EXPECT_EQ(snap.label_value, hostile);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// JSON shape checks for export_json and bench_json use the shared
// harness/mini_json parser (objects preserve insertion order, which the
// name-ordering assertions below rely on).

using json_value = mini_json::value;
using json_parser = mini_json::parser;

TEST(KmonExport, JsonParsesAndCarriesRates) {
  kmon_scope scope;
  kmet().ipc_messages.inc(7);
  auto snap = kmon::registry::instance().snapshot();
  std::vector<kmon::rate_sample> rates{{"machlock_ipc_messages_total", 12.5}};
  const std::string text = kmon::export_json(snap, &rates);
  json_parser p(text);
  json_value root;
  ASSERT_TRUE(p.parse(root)) << p.error();
  ASSERT_EQ(root.k, json_value::kind::array);  // one object per metric
  bool saw_ipc = false;
  for (const auto& m : root.arr) {
    const json_value* name = m.find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "machlock_ipc_messages_total") {
      saw_ipc = true;
      const json_value* rate = m.find("rate_per_sec");
      ASSERT_NE(rate, nullptr) << "counter with a sampler rate must carry rate_per_sec";
      EXPECT_DOUBLE_EQ(rate->num, 12.5);
    }
  }
  EXPECT_TRUE(saw_ipc);
}

TEST(KmonExport, FileWriterPicksFormatFromExtension) {
  kmon_scope scope;
  const std::string dir = ::testing::TempDir();
  const std::string prom_path = dir + "/kmon_test.prom";
  const std::string json_path = dir + "/kmon_test.json";
  ASSERT_TRUE(kmon::export_file(prom_path));
  ASSERT_TRUE(kmon::export_file(json_path));
  std::ifstream pf(prom_path);
  std::string prom((std::istreambuf_iterator<char>(pf)), std::istreambuf_iterator<char>());
  prom_doc doc;
  ASSERT_TRUE(doc.parse(prom)) << doc.error;
  check_prom_invariants(doc);
  std::ifstream jf(json_path);
  std::string json((std::istreambuf_iterator<char>(jf)), std::istreambuf_iterator<char>());
  json_parser p(json);
  json_value root;
  EXPECT_TRUE(p.parse(root)) << p.error();
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

// ---------------------------------------------------------------------------
// Rates off the flight ring, which the monitor thread keeps while a metrics
// export records (prof/kprof.h).

TEST(KmonSampler, ComputesPositiveRateForBusyCounter) {
  kmon_scope scope;
  kprof::sampler& s = kprof::sampler::instance();
  s.reset();
  s.record(true, 20ms);
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  double rate = 0.0;
  while (std::chrono::steady_clock::now() < deadline) {
    kmet().sched_wakeups_no_waiter.inc(100);
    std::this_thread::sleep_for(5ms);
    const std::vector<kmon::value_snapshot> ring = s.snapshot().flight;
    if (ring.size() < 2) continue;
    for (const auto& r : kmon::counter_rates(ring.front(), ring.back())) {
      if (r.name == "machlock_sched_wakeups_no_waiter_total" && r.per_second > 0.0)
        rate = r.per_second;
    }
    if (rate > 0.0) break;
  }
  s.record(false);
  s.reset();
  EXPECT_GT(rate, 0.0);
}

// ---------------------------------------------------------------------------
// CI smoke hook: when MACHLOCK_PROM_FILE names a file written by a bench
// run (MACHLOCK_METRICS=<file>.prom), validate it with the same parser.

TEST(PromFileSmoke, ValidatesExportedFile) {
  const char* path = std::getenv("MACHLOCK_PROM_FILE");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "MACHLOCK_PROM_FILE not set";
  }
  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << "cannot open " << path;
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  ASSERT_FALSE(text.empty());
  prom_doc doc;
  ASSERT_TRUE(doc.parse(text)) << doc.error;
  check_prom_invariants(doc);
  bool saw_machlock = false;
  for (const auto& s : doc.samples) {
    if (s.name.rfind("machlock_", 0) == 0) saw_machlock = true;
  }
  EXPECT_TRUE(saw_machlock) << "no machlock_* metric in " << path;
}

// ---------------------------------------------------------------------------
// bench_json: tables recorded through the harness land in a parseable
// BENCH_<name>.json with best-effort numeric values.

TEST(BenchJson, TableRoundTripsThroughJsonFile) {
  const std::string dir = ::testing::TempDir();
  ASSERT_EQ(setenv("MACHLOCK_BENCH_JSON", dir.c_str(), 1), 0);
  ASSERT_TRUE(bench_json::active());
  bench_json::set_bench_name("unittest");
  table t("test caption");
  t.columns({"label", "count", "ratio"});
  t.row({"row-a", "1,234", "3.42x"});
  t.row({"row-b", "85.0%", "not-a-number"});
  t.print();
  const std::string path = bench_json::flush();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("BENCH_unittest.json"), std::string::npos);
  EXPECT_TRUE(bench_json::flush().empty());  // second flush is a no-op

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string text((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  json_parser p(text);
  json_value root;
  ASSERT_TRUE(p.parse(root)) << p.error();
  const json_value* bench = root.find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "unittest");
  const json_value* tables = root.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_GE(tables->arr.size(), 1u);
  // Find our table (earlier tests in this binary may have recorded others
  // after the env var was set — it was not, but stay defensive).
  const json_value* mine = nullptr;
  for (const auto& tab : tables->arr) {
    const json_value* cap = tab.find("caption");
    if (cap != nullptr && cap->str == "test caption") mine = &tab;
  }
  ASSERT_NE(mine, nullptr);
  const json_value* rows = mine->find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->arr.size(), 2u);
  const json_value* values_a = rows->arr[0].find("values");
  ASSERT_NE(values_a, nullptr);
  ASSERT_EQ(values_a->arr.size(), 3u);
  EXPECT_EQ(values_a->arr[0].k, json_value::kind::null);  // "row-a"
  EXPECT_DOUBLE_EQ(values_a->arr[1].num, 1234.0);         // "1,234"
  EXPECT_DOUBLE_EQ(values_a->arr[2].num, 3.42);           // "3.42x"
  const json_value* values_b = rows->arr[1].find("values");
  ASSERT_NE(values_b, nullptr);
  EXPECT_DOUBLE_EQ(values_b->arr[1].num, 85.0);           // "85.0%"
  EXPECT_EQ(values_b->arr[2].k, json_value::kind::null);  // "not-a-number"

  unsetenv("MACHLOCK_BENCH_JSON");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach
