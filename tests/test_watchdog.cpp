// Tests for the stall watchdog (src/metrics/watchdog.h): each wait class
// trips its deadline, the trip report names the stalled resource, and
// healthy waits do not trip. These cover the paper's runtime failure modes
// (wedged simple-lock holders, lost wakeups, starved writers) end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/watchdog.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/complex_lock.h"
#include "sync/simple_lock.h"
#include "trace/kspan.h"

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
// (plus poll and scheduling slack) and name the held lock.
TEST(Watchdog, TripsOnWedgedSimpleLockAndNamesIt) {
  watchdog_config cfg;
  cfg.poll = 5ms;
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

  // Deadline 50ms + poll 5ms; allow generous scheduler slack but still
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
  cfg.poll = 5ms;
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
    cfg.poll = 5ms;
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
  cfg.poll = 5ms;
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
  std::this_thread::sleep_for(30ms);  // a few poll periods
  EXPECT_EQ(trips.trips(), 0u);
}

TEST(Watchdog, StartStopIsIdempotentAndRestartable) {
  watchdog_config cfg;
  cfg.poll = 5ms;
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

// A stall inside an active kspan request names the request in the trip
// report, so the operator can join the trip against the exported trace.
TEST(Watchdog, TripReportNamesTheStalledRequestSpan) {
  kspan::enable();
  watchdog_config cfg;
  cfg.poll = 5ms;
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
  setenv("MACHLOCK_WATCHDOG_POLL_MS", "7", 1);
  setenv("MACHLOCK_WATCHDOG_SPIN_MS", "123", 1);
  setenv("MACHLOCK_WATCHDOG_PANIC", "1", 1);
  watchdog_config cfg = watchdog_config_from_env();
  EXPECT_EQ(cfg.poll, 7ms);
  EXPECT_EQ(cfg.spin_deadline, 123ms);
  EXPECT_TRUE(cfg.panic_on_trip);
  unsetenv("MACHLOCK_WATCHDOG_POLL_MS");
  unsetenv("MACHLOCK_WATCHDOG_SPIN_MS");
  unsetenv("MACHLOCK_WATCHDOG_PANIC");
  cfg = watchdog_config_from_env();
  EXPECT_EQ(cfg.poll, 10ms);
  EXPECT_EQ(cfg.spin_deadline, 250ms);
  EXPECT_FALSE(cfg.panic_on_trip);
}

}  // namespace
}  // namespace mach
