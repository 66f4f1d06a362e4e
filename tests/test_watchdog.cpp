// Tests for the stall watchdog (src/metrics/watchdog.h): each wait class
// trips its deadline, the trip report names the stalled resource, and
// healthy waits do not trip. These cover the paper's runtime failure modes
// (wedged simple-lock holders, lost wakeups, starved writers) end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/trace_session.h"
#include "kern/zalloc.h"
#include "metrics/watchdog.h"
#include "prof/kprof.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/deadlock.h"
#include "sync/lock_probe.h"
#include "sync/simple_lock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

// Collects trip reports and stops the watchdog on scope exit so tests stay
// independent.
class trip_collector {
 public:
  explicit trip_collector(watchdog_config cfg) : baseline_(watchdog::instance().trips()) {
    cfg.on_trip = [this](const std::string& report) {
      std::lock_guard<std::mutex> g(m_);
      reports_.push_back(report);
    };
    watchdog::instance().start(cfg);
  }
  ~trip_collector() { watchdog::instance().stop(); }

  std::uint64_t trips() const { return watchdog::instance().trips() - baseline_; }

  // Wait until at least one trip fires or `deadline` elapses; returns the
  // first report (empty on timeout).
  std::string wait_for_trip(std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      {
        std::lock_guard<std::mutex> g(m_);
        if (!reports_.empty()) return reports_.front();
      }
      std::this_thread::sleep_for(2ms);
    }
    std::lock_guard<std::mutex> g(m_);
    return reports_.empty() ? std::string{} : reports_.front();
  }

 private:
  std::uint64_t baseline_;
  std::mutex m_;
  std::vector<std::string> reports_;
};

// The ISSUE acceptance scenario: one thread wedges holding a simple lock,
// another spins on it; the watchdog must trip within the spin deadline
// (plus one monitor tick and scheduling slack) and name the held lock.
TEST(Watchdog, TripsOnWedgedSimpleLockAndNamesIt) {
  watchdog_config cfg;
  cfg.spin_deadline = 50ms;
  cfg.block_deadline = 10s;   // keep other classes quiet
  cfg.writer_deadline = 10s;
  trip_collector trips(cfg);

  simple_lock_data_t wedge;
  simple_lock_init(&wedge, "wedge-lock");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  auto holder = kthread::spawn("wedge-holder", [&] {
    simple_lock(&wedge);
    held.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);  // wedged
    simple_unlock(&wedge);
  });
  while (!held.load()) std::this_thread::yield();

  const auto spin_start = std::chrono::steady_clock::now();
  auto spinner = kthread::spawn("wedge-spinner", [&] {
    simple_lock(&wedge);
    simple_unlock(&wedge);
  });

  // Deadline 50ms + one ~10ms tick; allow generous scheduler slack but still
  // assert the trip arrived well before an un-watched spin would.
  const std::string report = trips.wait_for_trip(2000ms);
  const auto elapsed = std::chrono::steady_clock::now() - spin_start;
  ASSERT_FALSE(report.empty()) << "watchdog did not trip on a wedged simple lock";
  EXPECT_GE(trips.trips(), 1u);
  EXPECT_GE(elapsed, 45ms);  // not before the deadline
  EXPECT_NE(report.find("wedge-lock"), std::string::npos) << report;
  EXPECT_NE(report.find("simple-lock spin"), std::string::npos) << report;
  // The kprof activity word: the spinner's last published state must be
  // "spinning on 'wedge-lock'" — the report says what the thread was
  // DOING, not just which deadline fired.
  EXPECT_NE(report.find("activity: spinning on 'wedge-lock'"), std::string::npos) << report;
  EXPECT_NE(watchdog::instance().last_report().find("wedge-lock"), std::string::npos);

  release.store(true);
  holder->join();
  spinner->join();
}

TEST(Watchdog, TripsOnThreadBlockedPastDeadline) {
  watchdog_config cfg;
  cfg.spin_deadline = 10s;
  cfg.block_deadline = 50ms;
  cfg.writer_deadline = 10s;
  trip_collector trips(cfg);

  int ev = 0;
  std::atomic<bool> waiting{false};
  auto waiter = kthread::spawn("lost-wakeup-waiter", [&] {
    assert_wait(&ev);
    waiting.store(true);
    // Nobody wakes us; the timeout is our own unwedge, well past the
    // watchdog's block deadline.
    thread_block_timeout(1500ms);
  });
  while (!waiting.load()) std::this_thread::yield();

  const std::string report = trips.wait_for_trip(2000ms);
  ASSERT_FALSE(report.empty()) << "watchdog did not trip on a blocked thread";
  EXPECT_NE(report.find("blocked thread"), std::string::npos) << report;
  EXPECT_NE(report.find("event-wait"), std::string::npos) << report;

  thread_wakeup(&ev);  // harmless if the timeout already fired
  waiter->join();
}

// Readers that never drain starve both forms of writer the writer_wait
// class covers: lock_write, and an upgrader parked in lock_read_to_write.
TEST(Watchdog, TripsOnStarvedWriter) {
  for (const bool upgrade : {false, true}) {
    SCOPED_TRACE(upgrade ? "lock_read_to_write" : "lock_write");
    watchdog_config cfg;
    cfg.spin_deadline = 10s;
    cfg.block_deadline = 10s;
    cfg.writer_deadline = 50ms;
    trip_collector trips(cfg);

    lock_data_t l;
    lock_init(&l, /*can_sleep=*/true, "starver-lock");
    std::atomic<bool> reading{false};
    std::atomic<bool> release{false};
    auto reader = kthread::spawn("greedy-reader", [&] {
      lock_read(&l);
      reading.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);
      lock_done(&l);
    });
    while (!reading.load()) std::this_thread::yield();

    auto writer = kthread::spawn("starved-writer", [&] {
      if (upgrade) {
        lock_read(&l);
        if (!lock_read_to_write(&l)) lock_done(&l);  // false: upgraded, holds write
      } else {
        lock_write(&l);
        lock_done(&l);
      }
    });

    const std::string report = trips.wait_for_trip(2000ms);
    EXPECT_FALSE(report.empty()) << "watchdog did not trip on a starved writer";
    EXPECT_NE(report.find("starved complex-lock writer"), std::string::npos) << report;
    EXPECT_NE(report.find("starver-lock"), std::string::npos) << report;

    release.store(true);
    reader->join();
    writer->join();
  }
}

TEST(Watchdog, HealthyContentionDoesNotTrip) {
  watchdog_config cfg;
  cfg.spin_deadline = 500ms;
  cfg.block_deadline = 2s;
  cfg.writer_deadline = 1s;
  trip_collector trips(cfg);

  // Short lock hand-offs and immediate wakeups: all waits end far inside
  // their deadlines.
  simple_lock_data_t l;
  simple_lock_init(&l, "healthy-lock");
  int ev = 0;
  std::vector<std::unique_ptr<kthread>> threads;
  for (int i = 0; i < 4; ++i) {
    threads.push_back(kthread::spawn(std::string("healthy") += std::to_string(i), [&] {
      for (int n = 0; n < 200; ++n) {
        simple_lock(&l);
        simple_unlock(&l);
      }
      assert_wait(&ev);
      thread_block_timeout(20ms);
    }));
  }
  for (auto& t : threads) t->join();
  thread_wakeup(&ev);
  std::this_thread::sleep_for(30ms);  // a few monitor ticks
  EXPECT_EQ(trips.trips(), 0u);
}

TEST(Watchdog, StartStopIsIdempotentAndRestartable) {
  watchdog_config cfg;
  trip_collector first(cfg);
  EXPECT_TRUE(watchdog::instance().running());
  watchdog::instance().start(cfg);  // second start is a no-op
  EXPECT_TRUE(watchdog::instance().running());
  watchdog::instance().stop();
  EXPECT_FALSE(watchdog::instance().running());
  watchdog::instance().stop();  // second stop is a no-op
  watchdog::instance().start(cfg);
  EXPECT_TRUE(watchdog::instance().running());
  watchdog::instance().stop();
}

// The watchdog and the profiler share the monitor thread: a profile
// started and stopped while the watchdog is armed leaves the scan running.
TEST(Watchdog, StillTripsAfterTheSamplerStops) {
  watchdog_config cfg;
  cfg.spin_deadline = 50ms;
  cfg.block_deadline = 10s;
  cfg.writer_deadline = 10s;
  trip_collector trips(cfg);
  kprof::sampler::instance().start(500.0, 0ms);
  std::this_thread::sleep_for(20ms);
  kprof::sampler::instance().stop();
  kprof::sampler::instance().reset();

  simple_lock_data_t wedge;
  simple_lock_init(&wedge, "shared-monitor-wedge");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  auto holder = kthread::spawn("shared-wedge-holder", [&] {
    simple_lock(&wedge);
    held.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    simple_unlock(&wedge);
  });
  while (!held.load()) std::this_thread::yield();
  auto spinner = kthread::spawn("shared-wedge-spinner", [&] {
    simple_lock(&wedge);
    simple_unlock(&wedge);
  });

  const std::string report = trips.wait_for_trip(2000ms);
  EXPECT_NE(report.find("shared-monitor-wedge"), std::string::npos)
      << "no trip once the sampler stopped";
  release.store(true);
  holder->join();
  spinner->join();
}

// ...and a watchdog armed and disarmed while profiling leaves the sampler
// ticking.
TEST(Watchdog, SamplerKeepsTickingAfterTheWatchdogStops) {
  kprof::sampler& s = kprof::sampler::instance();
  s.reset();
  s.start(500.0, 0ms);
  {
    const trip_collector trips(watchdog_config{});
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_FALSE(watchdog::instance().running());
  const std::uint64_t before = s.snapshot().ticks;
  std::this_thread::sleep_for(50ms);
  EXPECT_TRUE(s.running());
  EXPECT_GT(s.snapshot().ticks, before);
  s.stop();
  s.reset();
}

// A stall inside an active kspan request names the request in the trip
// report, so the operator can join the trip against the exported trace.
TEST(Watchdog, TripReportNamesTheStalledRequestSpan) {
  kspan::enable();
  watchdog_config cfg;
  cfg.spin_deadline = 50ms;
  cfg.block_deadline = 10s;
  cfg.writer_deadline = 10s;
  trip_collector trips(cfg);

  simple_lock_data_t wedge;
  simple_lock_init(&wedge, "span-wedge-lock");
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  auto holder = kthread::spawn("span-wedge-holder", [&] {
    simple_lock(&wedge);
    held.store(true);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    simple_unlock(&wedge);
  });
  while (!held.load()) std::this_thread::yield();

  std::atomic<std::uint32_t> trace_id{0};
  auto spinner = kthread::spawn("span-wedge-spinner", [&] {
    kspan::request req("stalled-request");
    trace_id.store(span_trace_id(req.ctx()));
    simple_lock(&wedge);
    simple_unlock(&wedge);
  });

  const std::string report = trips.wait_for_trip(2000ms);
  ASSERT_FALSE(report.empty()) << "watchdog did not trip";
  char expect[64];
  std::snprintf(expect, sizeof(expect), "request: trace=0x%x", trace_id.load());
  EXPECT_NE(report.find(expect), std::string::npos) << report;

  release.store(true);
  holder->join();
  spinner->join();
  kspan::disable();
}

TEST(Watchdog, ConfigFromEnvReadsOverrides) {
  setenv("MACHLOCK_WATCHDOG_SPIN_MS", "123", 1);
  setenv("MACHLOCK_WATCHDOG_PANIC", "1", 1);
  setenv("MACHLOCK_WATCHDOG_BLOCK_MS", "5s", 1);  // malformed: the default stays
  watchdog_config cfg = watchdog_config_from_env();
  EXPECT_EQ(cfg.spin_deadline, 123ms);
  EXPECT_EQ(cfg.block_deadline, 2000ms);
  EXPECT_TRUE(cfg.panic_on_trip);
  unsetenv("MACHLOCK_WATCHDOG_SPIN_MS");
  unsetenv("MACHLOCK_WATCHDOG_PANIC");
  unsetenv("MACHLOCK_WATCHDOG_BLOCK_MS");
  cfg = watchdog_config_from_env();
  EXPECT_EQ(cfg.spin_deadline, 250ms);
  EXPECT_FALSE(cfg.panic_on_trip);
}

// MACHLOCK_WATCHDOG=1 arms the watchdog through trace_session, whose trip
// sink writes the report to stderr and the lockstat table to stdout; the
// kernel's default sink writes the report alone.
TEST(Watchdog, TraceSessionTripSendsReportToStderrAndTableToStdout) {
  ASSERT_FALSE(watchdog::instance().running());
  setenv("MACHLOCK_WATCHDOG", "1", 1);
  setenv("MACHLOCK_WATCHDOG_SPIN_MS", "50", 1);
  const std::uint64_t baseline = watchdog::instance().trips();
  testing::internal::CaptureStderr();
  testing::internal::CaptureStdout();
  {
    trace_session session;
    EXPECT_TRUE(watchdog::instance().running());
    simple_lock_data_t wedge("session-wedge-lock");
    std::atomic<bool> held{false};
    std::atomic<bool> release{false};
    auto holder = kthread::spawn("session-wedge-holder", [&] {
      simple_lock(&wedge);
      held.store(true);
      while (!release.load()) std::this_thread::sleep_for(1ms);  // wedged
      simple_unlock(&wedge);
    });
    while (!held.load()) std::this_thread::yield();
    auto spinner = kthread::spawn("session-wedge-spinner", [&] {
      simple_lock(&wedge);
      simple_unlock(&wedge);
    });
    const auto until = std::chrono::steady_clock::now() + 2000ms;
    while (watchdog::instance().trips() == baseline && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(2ms);
    }
    release.store(true);
    holder->join();
    spinner->join();
  }  // the session stops the watchdog it started
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  unsetenv("MACHLOCK_WATCHDOG");
  unsetenv("MACHLOCK_WATCHDOG_SPIN_MS");

  EXPECT_FALSE(watchdog::instance().running());
  ASSERT_GT(watchdog::instance().trips(), baseline) << "watchdog did not trip";
  EXPECT_NE(err.find("== machlock watchdog trip =="), std::string::npos) << err;
  EXPECT_NE(err.find("session-wedge-lock"), std::string::npos) << err;
  EXPECT_EQ(err.find("lockstat: most contended lock names"), std::string::npos) << err;
  EXPECT_NE(out.find("lockstat: most contended lock names"), std::string::npos) << out;
  EXPECT_EQ(out.find("== machlock watchdog trip =="), std::string::npos) << out;
}

// --- the lock probe's contract (sync/lock_probe.h) ---

// The wait kind alone routes an event.
static_assert((route(probe_kind::complex_read).wait & probe_watchdog) == 0,
              "a reader's wait is not a stall");
static_assert(route(probe_kind::zone).wait == probe_wait_graph &&
                  route(probe_kind::zone).hold == probe_wait_graph &&
                  route(probe_kind::barrier).wait == probe_wait_graph &&
                  route(probe_kind::barrier).hold == probe_wait_graph,
              "zone and barrier edges feed only the wait graph");
static_assert(route(probe_kind::simple_untracked).wait != 0 &&
                  route(probe_kind::simple_untracked).hold == 0,
              "untracked locks report waits but not holds");

// A helper takes a hold with `hold`, this thread then blocks in `contend`,
// and the helper runs `release` once it sees this thread's activity word
// read `waiting`: `contend` makes exactly one contended acquisition.
void contend_once(kprof::activity waiting, const std::function<void()>& hold,
                  const std::function<void()>& contend, const std::function<void()>& release) {
  const void* me = current_thread_token();
  std::atomic<bool> held{false};
  auto helper = kthread::spawn("probe-holder", [&] {
    hold();
    held.store(true);
    while (kprof::activity_for(me).state != waiting) std::this_thread::yield();
    release();
  });
  while (!held.load()) std::this_thread::yield();
  contend();
  helper->join();
}

// Every subscriber on, one contended acquisition of each kind: afterwards
// no wait or hold edge, stall entry or activity word outlives it, and
// ktrace holds exactly one wait span per contended acquisition.
TEST(LockProbe, EverySubscriberOnLeavesNothingBehind) {
  watchdog_config cfg;
  cfg.spin_deadline = 200ms;
  cfg.block_deadline = 200ms;
  cfg.writer_deadline = 200ms;
  trip_collector trips(cfg);
  const deadlock_tracing_scope graph;
  ktrace::reset();
  ktrace::enable();
  kspan::enable();

  simple_lock_data_t spin;
  simple_lock_init(&spin, "probe-spin");
  lock_data_t rw;
  lock_init(&rw, /*can_sleep=*/true, "probe-rw");
  zone z("probe-zone", sizeof(std::uint64_t), 1);
  {
    const kspan::request req("probe-contract");
    kprof::publish(kprof::activity::running, nullptr);
    const kprof::activity_word prior = kprof::self_word();

    contend_once(
        kprof::activity::spinning, [&] { simple_lock(&spin); },
        [&] {
          simple_lock(&spin);
          simple_unlock(&spin);
        },
        [&] { simple_unlock(&spin); });
    contend_once(
        kprof::activity::lock_waiting, [&] { lock_write(&rw); },
        [&] {
          lock_read(&rw);
          lock_done(&rw);
        },
        [&] { lock_done(&rw); });
    contend_once(
        kprof::activity::lock_waiting, [&] { lock_read(&rw); },
        [&] {
          lock_write(&rw);
          lock_done(&rw);
        },
        [&] { lock_done(&rw); });
    lock_read(&rw);
    contend_once(
        kprof::activity::lock_waiting, [&] { lock_read(&rw); },
        [&] {
          EXPECT_FALSE(lock_read_to_write(&rw));  // false: upgraded
          lock_done(&rw);
        },
        [&] { lock_done(&rw); });
    void* element = nullptr;
    contend_once(
        kprof::activity::blocked, [&] { element = z.alloc(); },
        [&] { z.free(z.alloc()); }, [&] { z.free(element); });

    EXPECT_EQ(kprof::self_word(), prior);
  }
  EXPECT_TRUE(wait_graph::instance().held_resources().empty());
  EXPECT_FALSE(wait_graph::instance().find_cycle().has_value());

  std::this_thread::sleep_for(3 * cfg.block_deadline);
  EXPECT_EQ(trips.trips(), 0u) << watchdog::instance().last_report();

  kspan::disable();
  ktrace::disable();
  std::map<std::pair<trace_kind, std::uint64_t>, int> waits;
  for (const ktrace::collected_event& e : ktrace::collect().events) {
    switch (e.rec.kind) {
      case trace_kind::simple_lock_wait:
      case trace_kind::complex_read_wait:
      case trace_kind::complex_write_wait:
      case trace_kind::complex_upgrade_wait: ++waits[{e.rec.kind, e.rec.arg1}]; break;
      default: break;
    }
  }
  ktrace::reset();
  const auto addr = [](const void* p) { return reinterpret_cast<std::uint64_t>(p); };
  EXPECT_EQ((waits[{trace_kind::simple_lock_wait, addr(&spin)}]), 1);
  EXPECT_EQ((waits[{trace_kind::complex_read_wait, addr(&rw)}]), 1);
  EXPECT_EQ((waits[{trace_kind::complex_write_wait, addr(&rw)}]), 1);
  EXPECT_EQ((waits[{trace_kind::complex_upgrade_wait, addr(&rw)}]), 1);
}

// The sampler stops between lock_write and lock_done: the release still
// clears the holding word it published.
TEST(LockProbe, SamplerStoppedMidHoldLeavesNoHoldingWord) {
  lock_data_t l;
  lock_init(&l, /*can_sleep=*/true, "probe-mid-hold");
  kprof::sampler::instance().start(97.0, 0ms);
  lock_write(&l);
  EXPECT_EQ(kprof::unpack_state(kprof::self_word()), kprof::activity::holding);
  kprof::sampler::instance().stop();
  lock_done(&l);
  EXPECT_NE(kprof::unpack_state(kprof::self_word()), kprof::activity::holding);
  kprof::sampler::instance().reset();
}

}  // namespace
}  // namespace mach
