// stress_refcount: concurrency battery for the reference counts
// (kern/refcount.h) — the paper's locked count and the atomic count under
// mixed get/put storms, last-reference destruction races through kobject,
// and a tracing-enabled arm.
//
// Unlike stress_core/stress_vm this driver is always built and runs under
// ctest (it is sized to finish in seconds); the TSan CI job also builds
// and runs it under -fsanitize=thread, where the atomic count gets its
// real audit. Scale knobs:
//
//   MACHLOCK_STRESS_THREADS  worker threads per arm      (default 4)
//   MACHLOCK_STRESS_ITERS    ops per worker per arm      (default 20000)
//   MACHLOCK_STRESS_ROUNDS   destruction-race rounds     (default 40)
//
// Expected output: "ALL OK" and exit 0 (and zero TSan warnings).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "base/rng.h"
#include "harness/trace_session.h"
#include "kern/object.h"
#include "kern/refcount.h"
#include "sched/kthread.h"
#include "trace/ktrace.h"

using namespace mach;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  int n = std::atoi(v);
  return n > 0 ? n : fallback;
}

int g_failures = 0;

#define CHECK(cond, what)                                           \
  do {                                                              \
    if (!(cond)) {                                                  \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, (what)); \
      ++g_failures;                                                 \
    }                                                               \
  } while (0)

// Arm 1 — mixed get/put/value storm on a shared count, per count type.
// Each worker keeps a local balance so the storm never over-releases; the
// creation reference must survive untouched.
template <typename Count>
void storm(const char* label, int threads, int iters) {
  Count c(1);
  std::vector<std::unique_ptr<kthread>> ts;
  for (int t = 0; t < threads; ++t) {
    ts.push_back(kthread::spawn("storm" + std::to_string(t), [&, t] {
      xorshift64 rng(static_cast<std::uint64_t>(t) * 7919 + 13);
      int held = 0;
      for (int i = 0; i < iters; ++i) {
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            c.acquire();
            ++held;
            break;
          case 2:
            if (held > 0) {
              CHECK(!c.release(), "storm release claimed last");
              --held;
            }
            break;
          default:
            CHECK(c.value() >= 1, "storm value dropped below creation ref");
            break;
        }
      }
      while (held-- > 0) CHECK(!c.release(), "storm drain claimed last");
    }));
  }
  for (auto& t : ts) t->join();
  CHECK(c.value() == 1, "storm did not balance");
  std::printf("storm ok: count=%s\n", label);
}

// Arm 2 — last-reference destruction races through kobject: every thread
// releases one of the object's references at once; exactly one release
// must destroy, and the live-object count must return to its base.
void destruction_race(int threads, int rounds) {
  struct doomed : kobject {
    explicit doomed(std::atomic<int>* d) : kobject("doomed"), flag(d) {}
    ~doomed() override { flag->fetch_add(1); }
    std::atomic<int>* flag;
  };
  std::uint64_t base = kobject::live_objects();
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> destroyed{0};
    auto* o = new doomed(&destroyed);
    for (int t = 1; t < threads; ++t) o->ref_clone();  // one ref per thread
    std::atomic<int> gate{0};
    std::vector<std::unique_ptr<kthread>> ts;
    for (int t = 0; t < threads; ++t) {
      ts.push_back(kthread::spawn("race" + std::to_string(t), [&] {
        gate.fetch_add(1);
        while (gate.load(std::memory_order_relaxed) < threads) {
        }
        o->ref_release();
      }));
    }
    for (auto& t : ts) t->join();
    CHECK(destroyed.load() == 1, "destruction race: not destroyed exactly once");
  }
  CHECK(kobject::live_objects() == base, "destruction race leaked objects");
  std::printf("destruction ok: rounds=%d\n", rounds);
}

// Arm 3 — the same traffic with tracing enabled: the emit paths (after
// each atomic RMW, inside the locked count's critical section) must be as
// race-free as the counts, and every destruction must leave its arg2==0
// marker.
void traced_storm(int threads, int iters) {
  // The storms never drop the creation reference, so the destruction
  // rounds are the only source of markers.
  constexpr int kDestructionRounds = 4;
  ktrace::disable();
  ktrace::reset();
  ktrace::enable();
  storm<locked_refcount>("locked", threads, iters);
  storm<atomic_refcount>("atomic", threads, iters);
  destruction_race(threads, kDestructionRounds);
  ktrace::disable();
  auto c = ktrace::collect();
  std::size_t destroy_markers = 0;
  std::uint64_t prev = 0;
  for (const auto& e : c.events) {
    CHECK(e.rec.nanos >= prev, "trace merge not time-ordered");
    prev = e.rec.nanos;
    if (e.rec.kind == trace_kind::ref_release && e.rec.arg2 == 0) ++destroy_markers;
  }
  // Exactly one marker per destruction round (markers may be dropped on
  // ring wrap; with default rings this traffic fits).
  CHECK(destroy_markers + c.total_dropped() >= kDestructionRounds, "missing destruction markers");
  CHECK(destroy_markers <= kDestructionRounds, "more destruction markers than destructions");
  ktrace::reset();
  std::printf("traced ok: events=%zu dropped=%llu\n", c.events.size(),
              static_cast<unsigned long long>(c.total_dropped()));
}

}  // namespace

int main() {
  // Honors the MACHLOCK_* observability env knobs (kprof sampler, kmon,
  // watchdog, trace export) so the TSan CI job can race the sampler's
  // slot-table walk against the full refcount battery.
  trace_session session;
  const int threads = env_int("MACHLOCK_STRESS_THREADS", 4);
  const int iters = env_int("MACHLOCK_STRESS_ITERS", 20000);
  const int rounds = env_int("MACHLOCK_STRESS_ROUNDS", 40);

  storm<locked_refcount>("locked", threads, iters);
  storm<atomic_refcount>("atomic", threads, iters);
  destruction_race(threads, rounds);
  traced_storm(threads, iters / 10 > 0 ? iters / 10 : 1);

  if (g_failures != 0) {
    std::printf("FAILURES: %d\n", g_failures);
    return 1;
  }
  std::printf("ALL OK\n");
  return 0;
}
