// Tests for the kprof sampling profiler (prof/kprof.h): activity-word
// packing, slot publication and decoding, sampler lifecycle, and — the
// acceptance scenario — a scripted spin/wait/block workload whose sampled
// attribution is deterministic and agrees with the event-based lockstat
// registry on which site is contended.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "base/stats.h"
#include "harness/mini_json.h"
#include "metrics/kmon.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"
#include "trace/kspan.h"
#include "trace/trace_session.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Stops the sampler and clears accumulated state around every test so the
// singleton never leaks samples between cases.
class kprof_fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kprof::sampler::instance().stop();
    kprof::sampler::instance().reset();
  }
  void TearDown() override {
    kprof::sampler::instance().stop();
    kprof::sampler::instance().reset();
    kmon::disable();
    kspan::disable();
    kprof::publish(kprof::activity::running, nullptr);
  }

  // Find the aggregated cell for (state, site); null when never sampled.
  static const kprof::site_sample* find_site(const kprof::profile& p, kprof::activity state,
                                             const std::string& site) {
    for (const kprof::site_sample& s : p.sites) {
      if (s.state == state && s.site == site) return &s;
    }
    return nullptr;
  }
};

TEST_F(kprof_fixture, PackRoundTripsStateSubjectAndRequestFlag) {
  static const char* const name = "pack-probe-lock";
  const kprof::activity_word w = kprof::pack(kprof::activity::lock_waiting, name, true);
  EXPECT_EQ(kprof::unpack_state(w), kprof::activity::lock_waiting);
  EXPECT_TRUE(kprof::unpack_request(w));
  EXPECT_EQ(kprof::unpack_subject(w),
            reinterpret_cast<std::uintptr_t>(name) & kprof::k_subject_mask);

  const kprof::activity_word bg = kprof::pack(kprof::activity::running, nullptr, false);
  EXPECT_EQ(bg, 0u);  // running/background/no-subject is the zero word
  EXPECT_EQ(kprof::unpack_state(bg), kprof::activity::running);
  EXPECT_FALSE(kprof::unpack_request(bg));
}

TEST_F(kprof_fixture, PublishAndActivityForDecodeTheCurrentThread) {
  static const char* const name = "probe-lock";
  kprof::publish(kprof::activity::spinning, name);
  kprof::thread_activity act = kprof::activity_for(current_thread_token());
  ASSERT_TRUE(act.found);
  EXPECT_EQ(act.state, kprof::activity::spinning);
  EXPECT_EQ(act.site, "probe-lock");
  EXPECT_FALSE(act.request);

  // The request bit tracks the live kspan context at publish time.
  kspan::enable();
  {
    kspan::request req("probe-request");
    kprof::publish(kprof::activity::holding, name);
    act = kprof::activity_for(current_thread_token());
    ASSERT_TRUE(act.found);
    EXPECT_EQ(act.state, kprof::activity::holding);
    EXPECT_TRUE(act.request);
  }
  kspan::disable();

  // A token that never published is reported as not found.
  int not_a_thread = 0;
  EXPECT_FALSE(kprof::activity_for(&not_a_thread).found);
}

TEST_F(kprof_fixture, SaveRestoreNestingKeepsOuterAttribution) {
  // The protocol the instrumentation points use: an inner wait publishes
  // over the outer word and restores it, so e.g. the interlock spin inside
  // a complex-lock wait re-surfaces as the complex-lock wait when it ends.
  static const char* const outer = "outer-lock";
  static const char* const inner = "inner-lock";
  kprof::publish(kprof::activity::lock_waiting, outer);
  const kprof::activity_word saved = kprof::self_word();
  kprof::publish(kprof::activity::spinning, inner);
  EXPECT_EQ(kprof::unpack_state(kprof::self_word()), kprof::activity::spinning);
  kprof::publish_word(saved);
  const kprof::thread_activity act = kprof::activity_for(current_thread_token());
  ASSERT_TRUE(act.found);
  EXPECT_EQ(act.state, kprof::activity::lock_waiting);
  EXPECT_EQ(act.site, "outer-lock");
}

TEST_F(kprof_fixture, SamplerStartStopIsIdempotentAndRestartable) {
  kprof::sampler& s = kprof::sampler::instance();
  EXPECT_FALSE(s.running());
  s.start(500.0, 5ms);
  EXPECT_TRUE(s.running());
  s.start(500.0, 5ms);  // second start is a no-op
  EXPECT_TRUE(s.running());
  s.stop();
  EXPECT_FALSE(s.running());
  s.stop();  // second stop is a no-op
  EXPECT_FALSE(s.running());
  s.start(500.0, 5ms);
  EXPECT_TRUE(s.running());
  std::this_thread::sleep_for(20ms);
  s.stop();
  const kprof::profile p = s.snapshot();
  EXPECT_GT(p.ticks, 0u);
  EXPECT_GT(p.duration_nanos, 0u);
  s.reset();
  EXPECT_EQ(s.snapshot().ticks, 0u);
}

// duration_nanos adds up the weights of the ticks it counts, so it agrees
// with `ticks`: each tick weighs at least one period (1 ms here), and the
// first after a start or reset weighs only the time since.
TEST_F(kprof_fixture, DurationRestartsAtResetWhileRunning) {
  kprof::sampler& s = kprof::sampler::instance();
  s.start(1000.0, 0ms);
  std::this_thread::sleep_for(80ms);
  const std::uint64_t reset_at = now_nanos();
  s.reset();
  std::this_thread::sleep_for(30ms);
  s.stop();
  const std::uint64_t since_reset = now_nanos() - reset_at;
  const kprof::profile p = s.snapshot();
  ASSERT_GT(p.ticks, 0u);
  EXPECT_LE(p.duration_nanos, since_reset);
  EXPECT_GE(p.duration_nanos, (p.ticks - 1) * 1'000'000);
}

TEST_F(kprof_fixture, DurationKeepsAddingAcrossARestart) {
  kprof::sampler& s = kprof::sampler::instance();
  const std::uint64_t first_start = now_nanos();
  s.start(1000.0, 0ms);
  std::this_thread::sleep_for(30ms);
  s.stop();
  s.start(1000.0, 0ms);
  std::this_thread::sleep_for(30ms);
  s.stop();
  const std::uint64_t elapsed = now_nanos() - first_start;
  const kprof::profile p = s.snapshot();
  ASSERT_GT(p.ticks, 1u);
  EXPECT_LE(p.duration_nanos, elapsed);
  EXPECT_GE(p.duration_nanos, (p.ticks - 2) * 1'000'000);
}

TEST_F(kprof_fixture, ZeroSampleSnapshotExportsValidJson) {
  // A sampler that never ran (or was reset) must still export a
  // well-formed, schema-stamped document — the "empty profile is valid"
  // contract prof_report relies on.
  const kprof::profile p = kprof::sampler::instance().snapshot();
  EXPECT_EQ(p.ticks, 0u);
  EXPECT_TRUE(p.sites.empty());
  EXPECT_TRUE(p.flight.empty());

  const std::string json = kprof::export_json(p);
  mini_json::value doc;
  std::string err;
  ASSERT_TRUE(mini_json::parse(json, &doc, &err)) << err;
  const mini_json::value* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "machlock-kprof-v1");
  const mini_json::value* samples = doc.find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_TRUE(samples->arr.empty());
}

// The acceptance scenario: three threads pinned in the three wait states
// for most of the sampling window, so the attribution is deterministic —
// every sample of each thread must land on the right (state, site) cell —
// and the profiler's contention ranking can be cross-checked against the
// event-based lockstat registry while both are live.
TEST_F(kprof_fixture, AttributesScriptedSpinWaitBlockAndAgreesWithLockstat) {
  kmon::enable();
  kmon::counter flight_probe("machlock_kprof_test_ops_total", "flight-recorder probe");
  flight_probe.inc(7);

  simple_lock_data_t hot;
  simple_lock_init(&hot, "kprof-hot-lock");
  lock_data_t rw;
  lock_init(&rw, /*can_sleep=*/true, "kprof-rw-lock");

  std::atomic<bool> wedged{false};
  std::atomic<bool> reading{false};
  std::atomic<bool> release{false};

  // The lock probe publishes activity words only while a reader (the
  // sampler, or an armed watchdog) is on, so sampling starts before the
  // threads enter their waits.
  kprof::sampler& s = kprof::sampler::instance();
  s.start(/*hz=*/2000.0, /*flight_interval=*/5ms);

  // Holder wedges both locks; spinner/waiter/blocker then sit in their
  // respective states until released.
  auto holder = kthread::spawn("kprof-holder", [&] {
    simple_lock(&hot);
    lock_read(&rw);
    wedged.store(true);
    reading.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    lock_done(&rw);
    simple_unlock(&hot);
  });
  while (!wedged.load()) std::this_thread::yield();

  auto spinner = kthread::spawn("kprof-spinner", [&] {
    simple_lock(&hot);  // spins for the whole window
    simple_unlock(&hot);
  });
  auto waiter = kthread::spawn("kprof-waiter", [&] {
    lock_write(&rw);  // sleeps in lock_wait for the whole window
    lock_done(&rw);
  });
  int ev = 0;
  auto blocker = kthread::spawn("kprof-blocker", [&] {
    assert_wait(&ev);
    thread_block_timeout(2000ms);  // nobody wakes us; released below
  });

  std::this_thread::sleep_for(120ms);
  s.stop();

  release.store(true);
  thread_wakeup(&ev);
  holder->join();
  spinner->join();
  waiter->join();
  blocker->join();

  const kprof::profile p = s.snapshot();
  EXPECT_GT(p.ticks, 50u);  // 120ms at 2kHz minus scheduling slack

  const kprof::site_sample* spin = find_site(p, kprof::activity::spinning, "kprof-hot-lock");
  ASSERT_NE(spin, nullptr) << "spinner never sampled on kprof-hot-lock";
  EXPECT_GT(spin->count, 0u);
  EXPECT_GT(spin->weight_nanos, 0u);

  const kprof::site_sample* wait = find_site(p, kprof::activity::lock_waiting, "kprof-rw-lock");
  ASSERT_NE(wait, nullptr) << "writer never sampled waiting on kprof-rw-lock";
  EXPECT_GT(wait->count, 0u);

  // The blocker's subject is the event address, rendered as an event label.
  bool saw_blocked_event = false;
  for (const kprof::site_sample& cell : p.sites) {
    if (cell.state == kprof::activity::blocked &&
        cell.site.compare(0, 8, "event:0x") == 0) {
      saw_blocked_event = true;
    }
  }
  EXPECT_TRUE(saw_blocked_event) << "blocker never sampled in thread_block";

  // Cross-check against lockstat: both locks the profiler ranked as
  // contended must be live, contended locks in the event-based registry —
  // the two modalities agree on WHAT was fought over.
  bool lockstat_saw_hot = false, lockstat_saw_rw = false;
  for (const lock_stat_entry& e : lock_registry::instance().snapshot()) {
    if (std::string(e.name) == "kprof-hot-lock" && e.contended > 0) lockstat_saw_hot = true;
    if (std::string(e.name) == "kprof-rw-lock" && e.contended > 0) lockstat_saw_rw = true;
  }
  EXPECT_TRUE(lockstat_saw_hot) << "lockstat disagrees: kprof-hot-lock not contended";
  EXPECT_TRUE(lockstat_saw_rw) << "lockstat disagrees: kprof-rw-lock not contended";

  // Flight recorder: 120ms at a 5ms interval must have captured several
  // kmon snapshots, and each carries our probe counter.
  ASSERT_GE(p.flight.size(), 3u);
  bool probe_in_flight = false;
  for (const auto& [name, value] : p.flight.front().values) {
    if (name == "machlock_kprof_test_ops_total") {
      probe_in_flight = true;
      EXPECT_EQ(value, 7.0);
    }
  }
  EXPECT_TRUE(probe_in_flight) << "flight snapshot missing the kmon probe counter";
}

// MACHLOCK_PROF_FLIGHT_MS=0 turns the flight recorder off, as
// docs/OBSERVABILITY.md says, rather than falling back to the default.
TEST_F(kprof_fixture, TraceSessionFlightMsZeroDisablesTheFlightRing) {
  const std::string path = ::testing::TempDir() + "kprof_flight_off.json";
  setenv("MACHLOCK_PROF", path.c_str(), 1);
  setenv("MACHLOCK_PROF_FLIGHT_MS", "0", 1);
  {
    const trace_session session;
    std::this_thread::sleep_for(50ms);
    const kprof::profile p = kprof::sampler::instance().snapshot();
    EXPECT_EQ(p.flight_interval_nanos, 0u);
    EXPECT_TRUE(p.flight.empty());
  }
  unsetenv("MACHLOCK_PROF");
  unsetenv("MACHLOCK_PROF_FLIGHT_MS");
  std::remove(path.c_str());
}

// One trace_session with a metrics export, the watchdog and the profiler
// shares one monitor thread; tearing the session down stops it, and the
// export carries counter rates read off the flight ring.
TEST_F(kprof_fixture, TraceSessionSharesOneMonitorAndExportsRates) {
  const std::string metrics = ::testing::TempDir() + "kprof_session_metrics.json";
  const std::string prof = ::testing::TempDir() + "kprof_session_prof.json";
  setenv("MACHLOCK_METRICS", metrics.c_str(), 1);
  setenv("MACHLOCK_WATCHDOG", "1", 1);
  setenv("MACHLOCK_PROF", prof.c_str(), 1);
  {
    const trace_session session;
    EXPECT_TRUE(kprof::sampler::instance().running());
    EXPECT_TRUE(watchdog::instance().running());
    std::this_thread::sleep_for(100ms);
  }
  unsetenv("MACHLOCK_METRICS");
  unsetenv("MACHLOCK_WATCHDOG");
  unsetenv("MACHLOCK_PROF");
  EXPECT_FALSE(kprof::sampler::instance().running());
  EXPECT_FALSE(watchdog::instance().running());

  mini_json::value doc;
  std::string err;
  ASSERT_TRUE(mini_json::parse_file(metrics, &doc, &err)) << err;
  ASSERT_TRUE(doc.is(mini_json::value::kind::array));
  std::size_t counters = 0;
  for (const mini_json::value& m : doc.arr) {
    const mini_json::value* kind = m.find("kind");
    if (kind == nullptr || kind->str != "counter") continue;
    ++counters;
    EXPECT_NE(m.find("rate_per_sec"), nullptr) << m.find("name")->str;
  }
  EXPECT_GT(counters, 0u);
  std::remove(metrics.c_str());
  std::remove(prof.c_str());
}

}  // namespace
}  // namespace mach
