// Tests for the ktrace subsystem: ring discipline (wraparound drops the
// oldest, with an honest drop count), merge ordering across concurrent
// writers, and both exporters — the Chrome JSON one is validated by
// parsing it back with a real (if minimal) JSON parser.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/mini_json.h"
#include "harness/trace_session.h"
#include "ipc/rpc.h"
#include "ipc/stubs.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/lockstat.h"
#include "sync/simple_lock.h"
#include "trace/kspan.h"
#include "trace/ktrace.h"
#include "trace/trace_export.h"

namespace mach {
namespace {

// The Chrome JSON export is checked against the grammar (via the shared
// harness/mini_json parser) and not just by substring search.
using json_value = mini_json::value;
using json_parser = mini_json::parser;

// ---------------------------------------------------------------------------

class ktrace_fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ktrace::disable();
    ktrace::reset();
    saved_capacity_ = ktrace::default_ring_capacity();
  }
  void TearDown() override {
    ktrace::disable();
    ktrace::set_default_ring_capacity(saved_capacity_);
    ktrace::reset();
  }

  std::size_t saved_capacity_ = 0;
};

const ktrace::thread_info* find_thread(const ktrace::trace_collection& c,
                                       const std::string& name) {
  for (const auto& t : c.threads) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

TEST_F(ktrace_fixture, KindMetadataIsComplete) {
  for (std::uint16_t i = 1; i < static_cast<std::uint16_t>(trace_kind::kind_count); ++i) {
    auto k = static_cast<trace_kind>(i);
    EXPECT_STRNE(trace_kind_label(k), "") << i;
    EXPECT_STRNE(trace_kind_label(k), "none") << i;
    std::string cat = trace_kind_category(k);
    EXPECT_TRUE(cat == "sync" || cat == "sched" || cat == "kern" || cat == "smp" ||
                cat == "vm" || cat == "ipc" || cat == "span")
        << cat;
  }
}

TEST_F(ktrace_fixture, DisabledEmitsNothing) {
  ASSERT_FALSE(ktrace::enabled());
  ktrace::emit(trace_kind::ref_take, "ghost", 1, 2);
  ktrace::emit_span(trace_kind::simple_lock_held, "ghost", 1, 2, now_nanos());
  ktrace::trace_collection c = ktrace::collect();
  EXPECT_TRUE(c.events.empty());
  EXPECT_EQ(c.total_dropped(), 0u);
}

TEST_F(ktrace_fixture, CollectMergesInTimeOrder) {
  ktrace::enable();
  for (std::uint64_t i = 0; i < 5; ++i) {
    ktrace::emit(trace_kind::ref_take, "order", 0x100, i);
  }
  ktrace::disable();
  ktrace::trace_collection c = ktrace::collect();
  ASSERT_GE(c.events.size(), 5u);
  for (std::size_t i = 1; i < c.events.size(); ++i) {
    EXPECT_GE(c.events[i].rec.nanos, c.events[i - 1].rec.nanos);
  }
}

TEST_F(ktrace_fixture, WraparoundKeepsNewestAndCountsDrops) {
  // The shrunken capacity applies only to rings created after the call, so
  // the writer must be a fresh thread.
  ktrace::set_default_ring_capacity(8);
  ktrace::enable();
  auto writer = kthread::spawn("wrap-writer", [] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      ktrace::emit(trace_kind::ref_take, "wrap", 0x400, i);
    }
  });
  writer->join();
  ktrace::disable();

  ktrace::trace_collection c = ktrace::collect();
  const ktrace::thread_info* t = find_thread(c, "wrap-writer");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->written, 20u);
  EXPECT_EQ(t->dropped, 12u);
  EXPECT_EQ(c.total_dropped(), 12u);

  // The surviving records are exactly the newest 8, still in order.
  std::vector<std::uint64_t> seqs;
  for (const auto& e : c.events) {
    if (e.tid == t->tid) seqs.push_back(e.rec.arg2);
  }
  ASSERT_EQ(seqs.size(), 8u);
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], 12u + i);
  }
}

TEST_F(ktrace_fixture, ConcurrentWritersMergePerThreadInOrder) {
  constexpr int writers = 4;
  constexpr std::uint64_t per_writer = 500;
  ktrace::enable();
  std::vector<std::unique_ptr<kthread>> threads;
  for (int w = 0; w < writers; ++w) {
    threads.push_back(kthread::spawn("trace-writer-" + std::to_string(w), [w] {
      for (std::uint64_t i = 0; i < per_writer; ++i) {
        ktrace::emit(trace_kind::ref_take, "mt", static_cast<std::uint64_t>(w), i);
      }
    }));
  }
  for (auto& t : threads) t->join();
  ktrace::disable();

  ktrace::trace_collection c = ktrace::collect();
  // Global order: non-decreasing timestamps.
  for (std::size_t i = 1; i < c.events.size(); ++i) {
    EXPECT_GE(c.events[i].rec.nanos, c.events[i - 1].rec.nanos);
  }
  // Per-thread order: each writer's sequence numbers appear ascending, so
  // the merge never reorders a single producer's records.
  std::map<std::uint32_t, std::uint64_t> next_seq;
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const auto& e : c.events) {
    if (e.rec.name == nullptr || std::string(e.rec.name) != "mt") continue;
    auto it = next_seq.find(e.tid);
    if (it == next_seq.end()) {
      next_seq[e.tid] = e.rec.arg2 + 1;
    } else {
      EXPECT_EQ(e.rec.arg2, it->second) << "tid " << e.tid;
      it->second = e.rec.arg2 + 1;
    }
    ++counts[e.tid];
  }
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(writers));
  for (const auto& [tid, n] : counts) EXPECT_EQ(n, per_writer) << "tid " << tid;
}

TEST_F(ktrace_fixture, ChromeJsonRoundTripsThroughParser) {
  ktrace::enable();
  const std::uint64_t end = now_nanos();
  ktrace::emit_span(trace_kind::simple_lock_held, "json-rt", 0xabc, 5000, end);
  ktrace::emit(trace_kind::ref_take, "esc\"ape", 0x123, 2);
  ktrace::disable();

  ktrace::trace_collection c = ktrace::collect();
  std::ostringstream os;
  export_chrome_json(c, os);
  const std::string text = os.str();

  json_value root;
  json_parser p(text);
  ASSERT_TRUE(p.parse(root)) << p.error() << "\n" << text;
  ASSERT_EQ(root.k, json_value::kind::object);

  const json_value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->k, json_value::kind::array);

  bool saw_process_meta = false, saw_thread_meta = false;
  const json_value* span = nullptr;
  const json_value* instant = nullptr;
  for (const json_value& e : events->arr) {
    ASSERT_EQ(e.k, json_value::kind::object);
    const json_value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      const json_value* name = e.find("name");
      ASSERT_NE(name, nullptr);
      if (name->str == "process_name") saw_process_meta = true;
      if (name->str == "thread_name") saw_thread_meta = true;
      continue;
    }
    const json_value* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (ph->str == "X" && name->str == "lock-held:json-rt") span = &e;
    if (ph->str == "i" && name->str == "ref-take:esc\"ape") instant = &e;
  }
  EXPECT_TRUE(saw_process_meta);
  EXPECT_TRUE(saw_thread_meta);

  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->find("cat")->str, "sync");
  EXPECT_NEAR(span->find("dur")->num, 5.0, 0.001);  // 5000 ns == 5 us
  EXPECT_NEAR(span->find("ts")->num, static_cast<double>(end - 5000) / 1000.0, 0.01);
  const json_value* args = span->find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("arg1")->str, "0xabc");

  ASSERT_NE(instant, nullptr);  // the escaped quote survived the round trip
  EXPECT_EQ(instant->find("s")->str, "t");
  EXPECT_EQ(instant->find("cat")->str, "kern");
  EXPECT_NEAR(instant->find("args")->find("arg2")->num, 2.0, 0.0);

  const json_value* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  ASSERT_NE(other->find("droppedRecords"), nullptr);
  EXPECT_EQ(other->find("droppedRecords")->num, 0.0);
}

TEST_F(ktrace_fixture, TextExportListsEventsAndElides) {
  ktrace::enable();
  for (std::uint64_t i = 0; i < 5; ++i) {
    ktrace::emit(trace_kind::thread_wakeup_ev, nullptr, 0x200, i);
  }
  const std::uint64_t end = now_nanos();
  ktrace::emit_span(trace_kind::complex_write_held, "txt-lock", 0x300, 1500, end);
  ktrace::disable();

  ktrace::trace_collection c = ktrace::collect();
  std::ostringstream full;
  export_text(c, full);
  EXPECT_NE(full.str().find("wakeup"), std::string::npos);
  EXPECT_NE(full.str().find("write-held"), std::string::npos);
  EXPECT_NE(full.str().find("txt-lock"), std::string::npos);

  std::ostringstream limited;
  export_text(c, limited, 2);
  EXPECT_NE(limited.str().find("earlier events elided"), std::string::npos);
}

TEST_F(ktrace_fixture, TraceSessionWritesParseableFile) {
  const std::string path = ::testing::TempDir() + "machlock_trace_session.json";
  {
    trace_session session(path, trace_session::format::chrome_json);
    ASSERT_TRUE(session.active());
    ASSERT_TRUE(ktrace::enabled());
    ktrace::emit(trace_kind::ref_take, "session-obj", 0x1, 1);
  }
  EXPECT_FALSE(ktrace::enabled());  // the session disabled tracing on exit

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream buf;
  buf << f.rdbuf();
  json_value root;
  json_parser p(buf.str());
  ASSERT_TRUE(p.parse(root)) << p.error();
  const json_value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const json_value& e : events->arr) {
    const json_value* name = e.find("name");
    if (name != nullptr && name->str == "ref-take:session-obj") found = true;
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST_F(ktrace_fixture, LockHoldAndWaitFeedTheRegistryHistograms) {
  // The hold profile belongs to the lock's name, which outlives the lock.
  auto hold_samples = [] {
    for (const auto& e : lock_registry::instance().snapshot()) {
      if (!e.is_complex && std::string(e.name) == "hist-feed") return e.hold_samples;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = hold_samples();
  {
    simple_lock_data_t l("hist-feed");
    ktrace::enable();
    for (int i = 0; i < 3; ++i) {
      simple_lock(&l);
      simple_unlock(&l);
    }
    ktrace::disable();
  }
  EXPECT_EQ(hold_samples() - before, 3u);  // every traced unlock recorded a hold
}

TEST_F(ktrace_fixture, RegistrySnapshotJsonIsParseable) {
  // Untimed: tracing stays off, so this lock must carry NO hold/wait
  // objects (absent means "not measured", never "measured 0").
  simple_lock_data_t untimed("json-snap-lock");
  simple_lock(&untimed);
  simple_unlock(&untimed);
  // Timed: exercised under ktrace, so its hold profile has samples and the
  // quantile object must be present.
  simple_lock_data_t timed("json-snap-timed");
  ktrace::enable();
  simple_lock(&timed);
  simple_unlock(&timed);
  ktrace::disable();
  const std::string text = lock_registry::instance().snapshot_json();
  json_value root;
  json_parser p(text);
  ASSERT_TRUE(p.parse(root)) << p.error();
  ASSERT_EQ(root.k, json_value::kind::array);
  bool found_untimed = false;
  bool found_timed = false;
  for (const json_value& e : root.arr) {
    ASSERT_EQ(e.k, json_value::kind::object);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("kind"), nullptr);
    ASSERT_NE(e.find("acquisitions"), nullptr);
    ASSERT_NE(e.find("contended"), nullptr);
    // Quantile objects appear exactly when the profile sampled.
    if (const json_value* hold = e.find("hold")) {
      ASSERT_NE(hold->find("samples"), nullptr);
      EXPECT_GE(hold->find("samples")->num, 1.0);
      ASSERT_NE(hold->find("p50_ns"), nullptr);
      ASSERT_NE(hold->find("p99_ns"), nullptr);
    }
    if (const json_value* wait = e.find("wait")) {
      ASSERT_NE(wait->find("samples"), nullptr);
      EXPECT_GE(wait->find("samples")->num, 1.0);
    }
    if (e.find("name")->str == "json-snap-lock") {
      found_untimed = true;
      EXPECT_EQ(e.find("kind")->str, "simple");
      EXPECT_GE(e.find("acquisitions")->num, 1.0);
      EXPECT_EQ(e.find("hold"), nullptr);  // never timed -> omitted
      EXPECT_EQ(e.find("wait"), nullptr);
    }
    if (e.find("name")->str == "json-snap-timed") {
      found_timed = true;
      ASSERT_NE(e.find("hold"), nullptr);  // timed -> quantiles present
    }
  }
  EXPECT_TRUE(found_untimed);
  EXPECT_TRUE(found_timed);
}

// ---------------------------------------------------------------------------
// kspan: request-scoped causal tracing (trace/kspan.h).

class kspan_fixture : public ::testing::Test {
 protected:
  void SetUp() override {
    kspan::disable();
    ktrace::disable();
    ktrace::reset();
    saved_capacity_ = ktrace::default_ring_capacity();
  }
  void TearDown() override {
    kspan::disable();
    ktrace::disable();
    ktrace::set_default_ring_capacity(saved_capacity_);
    ktrace::reset();
  }

  std::size_t saved_capacity_ = 0;
};

TEST_F(kspan_fixture, DisabledScopesAreInert) {
  ASSERT_FALSE(kspan::enabled());
  kspan::request req("noop");
  EXPECT_FALSE(req.active());
  EXPECT_EQ(kspan::current(), 0u);
  kspan::adopt_scope adopted(0x1234'0000'0000'0001ull);
  EXPECT_FALSE(adopted.active());
  EXPECT_EQ(kspan::current(), 0u);
  EXPECT_TRUE(ktrace::collect().events.empty());
}

TEST_F(kspan_fixture, ContextPropagatesAcrossSendReceive) {
  kspan::enable();
  ktrace::enable();
  auto p = make_object<port>("span-port");
  span_ctx_t sender_ctx = 0;
  {
    kspan::request req("xfer");
    ASSERT_TRUE(req.active());
    sender_ctx = req.ctx();
    EXPECT_EQ(kspan::current(), sender_ctx);
    ASSERT_EQ(p->send(message(1, {42})), KERN_SUCCESS);
  }
  std::optional<message> m = p->try_receive();
  ASSERT_TRUE(m.has_value());
  // The message carries the sender's exact context...
  EXPECT_EQ(m->span_ctx, sender_ctx);
  EXPECT_NE(m->span_sent_nanos, 0u);
  // ...and adopting it yields a child: same trace id, fresh span id.
  {
    kspan::adopt_scope adopted(m->span_ctx, "receiver");
    ASSERT_TRUE(adopted.active());
    EXPECT_EQ(span_trace_id(adopted.ctx()), span_trace_id(sender_ctx));
    EXPECT_NE(span_span_id(adopted.ctx()), span_span_id(sender_ctx));
    EXPECT_EQ(kspan::current(), adopted.ctx());
  }
  EXPECT_EQ(kspan::current(), 0u);

  ktrace::disable();
  bool saw_send = false, saw_recv = false;
  for (const auto& e : ktrace::collect().events) {
    if (e.rec.kind == trace_kind::span_send && e.rec.arg1 == sender_ctx) saw_send = true;
    if (e.rec.kind == trace_kind::span_recv && e.rec.arg1 == sender_ctx) saw_recv = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
}

TEST_F(kspan_fixture, NestedAdoptRestoresOuterContext) {
  kspan::enable();
  kspan::request outer("outer");
  const span_ctx_t outer_ctx = outer.ctx();
  {
    // A foreign context arrives mid-request (e.g. a server thread adopting
    // a message while running its own housekeeping span).
    const span_ctx_t foreign = (std::uint64_t{0xbeef} << 32) | 7u;
    kspan::adopt_scope inner(foreign, "inner");
    ASSERT_TRUE(inner.active());
    EXPECT_EQ(span_trace_id(kspan::current()), 0xbeefu);
  }
  EXPECT_EQ(kspan::current(), outer_ctx);
}

TEST_F(kspan_fixture, RpcReplyCarriesTraceIdAndRestoresClientSpan) {
  using namespace std::chrono_literals;
  kspan::enable();
  auto obj = make_object<counter_object>();
  auto service = make_object<port>("span-svc");
  service->set_translation(obj);
  kernel_server server(service, standard_router(), "span-server");

  kspan::request req("client-rpc");
  ASSERT_TRUE(req.active());
  std::optional<message> reply = rpc_call(*service, message(OP_COUNTER_ADD, {3}), 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->ret, KERN_SUCCESS);
  // The server adopted our context for dispatch + reply send, so the reply
  // comes back under our trace id (a different leg of the same request)...
  EXPECT_EQ(span_trace_id(reply->span_ctx), span_trace_id(req.ctx()));
  EXPECT_NE(reply->span_ctx, req.ctx());
  // ...and the client's own context survived the round trip untouched.
  EXPECT_EQ(kspan::current(), req.ctx());
}

TEST_F(kspan_fixture, WakeupDeliveryRecordsWaitForEdge) {
  kspan::enable();
  ktrace::enable();
  int ev = 0;
  std::atomic<bool> asserted{false};
  auto waiter = kthread::spawn("span-waiter", [&] {
    assert_wait(&ev);
    asserted.store(true);
    EXPECT_EQ(thread_block(), wait_result::awakened);
  });
  while (!asserted.load()) std::this_thread::yield();
  span_ctx_t waker_ctx = 0;
  {
    kspan::request req("waker");
    waker_ctx = req.ctx();
    thread_wakeup(&ev);
  }
  waiter->join();
  ktrace::disable();

  bool saw_edge = false;
  for (const auto& e : ktrace::collect().events) {
    if (e.rec.kind != trace_kind::span_unblock) continue;
    EXPECT_EQ(span_trace_id(e.rec.arg1), span_trace_id(waker_ctx));
    EXPECT_EQ(e.rec.arg2, reinterpret_cast<std::uint64_t>(&ev));
    saw_edge = true;
  }
  EXPECT_TRUE(saw_edge);
}

TEST_F(kspan_fixture, FlowEventsRoundTripThroughJson) {
  kspan::enable();
  ktrace::enable();
  auto p = make_object<port>("flow-port");
  {
    kspan::request req("flow");
    ASSERT_EQ(p->send(message(9)), KERN_SUCCESS);
    std::optional<message> m = p->try_receive();
    ASSERT_TRUE(m.has_value());
    kspan::adopt_scope adopted(m->span_ctx, "flow-leg");
  }
  ktrace::disable();

  std::ostringstream os;
  export_chrome_json(ktrace::collect(), os);
  json_value root;
  json_parser parser(os.str());
  ASSERT_TRUE(parser.parse(root)) << parser.error() << "\n" << os.str();
  const json_value* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);

  // One flow chain: start, at least one step, finish — all named "kspan",
  // all sharing one id, steps/finish bound to the enclosing slice.
  std::map<std::string, std::vector<const json_value*>> flows;
  const json_value* root_span = nullptr;
  for (const json_value& e : events->arr) {
    const json_value* name = e.find("name");
    const json_value* ph = e.find("ph");
    if (name == nullptr || ph == nullptr) continue;
    if (name->str == "kspan") flows[ph->str].push_back(&e);
    if (name->str == "span-end:flow") root_span = &e;
  }
  ASSERT_EQ(flows["s"].size(), 1u);
  ASSERT_GE(flows["t"].size(), 1u);
  ASSERT_EQ(flows["f"].size(), 1u);
  const double flow_id = flows["s"][0]->find("id")->num;
  for (const auto& [ph, list] : flows) {
    for (const json_value* e : list) {
      EXPECT_EQ(e->find("id")->num, flow_id);
      EXPECT_EQ(e->find("cat")->str, "span");
      if (ph != "s") {
        EXPECT_EQ(e->find("bp")->str, "e");
      }
    }
  }
  // The root span's args carry the trace/span ids for offline analysis,
  // and its trace id matches the flow id.
  ASSERT_NE(root_span, nullptr);
  const json_value* args = root_span->find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_NE(args->find("trace"), nullptr);
  ASSERT_NE(args->find("span"), nullptr);
  EXPECT_EQ(std::stoul(args->find("trace")->str, nullptr, 16),
            static_cast<unsigned long>(flow_id));
}

TEST_F(kspan_fixture, TraceSessionEnvKnobsDriveRingCapAndSpans) {
  ::setenv("MACHLOCK_TRACE_RING_CAP", "1234", 1);
  ::setenv("MACHLOCK_SPANS", "1", 1);
  {
    trace_session session;  // MACHLOCK_TRACE unset: no file, knobs still read
    EXPECT_FALSE(session.active());
    EXPECT_EQ(ktrace::default_ring_capacity(), 1234u);
    EXPECT_TRUE(kspan::enabled());
  }
  // The session turned spans off again on destruction.
  EXPECT_FALSE(kspan::enabled());
  ::unsetenv("MACHLOCK_TRACE_RING_CAP");
  ::unsetenv("MACHLOCK_SPANS");
}

}  // namespace
}  // namespace mach
