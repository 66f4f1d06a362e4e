// Tests for ports (messaging + translation) and IPC spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <vector>

#include "ipc/port.h"
#include "ipc/space.h"
#include "ipc/stubs.h"
#include "sched/event.h"
#include "sched/kthread.h"
#include "sync/lockstat.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

TEST(Port, SendReceiveRoundTrip) {
  auto p = make_object<port>();
  message m(7, {1, 2, 3});
  EXPECT_EQ(p->send(std::move(m)), KERN_SUCCESS);
  EXPECT_EQ(p->queued(), 1u);
  auto r = p->receive(100ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->op, 7u);
  EXPECT_EQ(r->data, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(p->queued(), 0u);
}

TEST(Port, MessagesAreFifo) {
  auto p = make_object<port>();
  for (std::uint32_t i = 0; i < 5; ++i) p->send(message(i));
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto r = p->try_receive();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->op, i);
  }
}

TEST(Port, TryReceiveEmptyIsNull) {
  auto p = make_object<port>();
  EXPECT_FALSE(p->try_receive().has_value());
}

TEST(Port, ReceiveTimesOut) {
  auto p = make_object<port>();
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(p->receive(30ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
}

TEST(Port, ReceiverBlocksUntilSend) {
  auto p = make_object<port>();
  std::atomic<bool> got{false};
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(5s);
    got.store(r.has_value() && r->op == 9);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(got.load());
  p->send(message(9));
  rx->join();
  EXPECT_TRUE(got.load());
}

TEST(Port, OneReceiverPerMessage) {
  auto p = make_object<port>();
  constexpr int n = 200;
  std::atomic<int> received{0};
  std::vector<std::unique_ptr<kthread>> rxs;
  for (int i = 0; i < 3; ++i) {
    rxs.push_back(kthread::spawn("rx" + std::to_string(i), [&] {
      while (received.load() < n) {
        auto r = p->receive(50ms);
        if (r.has_value()) received.fetch_add(1);
      }
    }));
  }
  for (int i = 0; i < n; ++i) p->send(message(static_cast<std::uint32_t>(i)));
  for (auto& r : rxs) r->join();
  EXPECT_EQ(received.load(), n);  // every message delivered exactly once
}

TEST(Port, QueueLimitRejectsWithNoSpace) {
  auto p = make_object<port>();
  p->set_queue_limit(2);
  EXPECT_EQ(p->send(message(1)), KERN_SUCCESS);
  EXPECT_EQ(p->send(message(2)), KERN_SUCCESS);
  EXPECT_EQ(p->send(message(3)), KERN_NO_SPACE);
  EXPECT_EQ(p->sends_failed(), 1u);
}

TEST(Port, SendToDeadPortFails) {
  auto p = make_object<port>();
  p->destroy_port();
  EXPECT_EQ(p->send(message(1)), KERN_TERMINATED);
}

TEST(Port, DestroyWakesBlockedReceiver) {
  auto p = make_object<port>();
  std::atomic<bool> woke_empty{false};
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(5s);
    woke_empty.store(!r.has_value());
  });
  std::this_thread::sleep_for(10ms);
  p->destroy_port();
  rx->join();
  EXPECT_TRUE(woke_empty.load());
}

TEST(Port, DestroyDropsQueuedMessagesAndTheirRefs) {
  auto reply = make_object<port>("reply");
  auto p = make_object<port>();
  message m(1);
  m.reply_to = reply;
  p->send(std::move(m));
  EXPECT_EQ(reply->ref_count(), 2);  // ours + queued message's
  p->destroy_port();
  EXPECT_EQ(reply->ref_count(), 1);  // message's right released
}

TEST(Port, MessageCarriesReplyPortReference) {
  auto reply = make_object<port>("reply");
  auto p = make_object<port>();
  message m(1);
  m.reply_to = reply;
  p->send(std::move(m));
  auto r = p->receive(100ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->reply_to.get(), reply.get());
  EXPECT_EQ(reply->ref_count(), 2);
  r.reset();  // releases the carried right
  EXPECT_EQ(reply->ref_count(), 1);
}

TEST(Port, TranslationClonesReference) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);  // port takes its own reference
  EXPECT_EQ(obj->ref_count(), 2);
  {
    auto t = p->translate();
    ASSERT_TRUE(t);
    EXPECT_EQ(t.get(), obj.get());
    EXPECT_EQ(obj->ref_count(), 3);
  }
  EXPECT_EQ(obj->ref_count(), 2);
}

TEST(Port, ClearTranslationDisablesAndReturnsRef) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);
  auto removed = p->clear_translation();
  EXPECT_EQ(removed.get(), obj.get());
  EXPECT_FALSE(p->translate());
  EXPECT_FALSE(p->has_translation());
}

TEST(Port, TranslateOnDeadPortFails) {
  auto obj = make_object<counter_object>();
  auto p = make_object<port>();
  p->set_translation(obj);
  p->destroy_port();
  EXPECT_FALSE(p->translate());
}

TEST(Port, ObjectSurvivesPortDeath) {
  // "it is possible for an object to be terminated, but its data structure
  // to remain while pointers to it exist."
  auto obj = make_object<counter_object>();
  {
    auto p = make_object<port>();
    p->set_translation(obj);
    p->destroy_port();
  }  // port's data structure dies with its last reference
  std::uint64_t v = 0;
  EXPECT_EQ(obj->read(v), KERN_SUCCESS);  // object untouched
}

// --- the port-receive / teardown races fixed in this PR ---

TEST(PortRace, TimedOutReceiverRechecksQueueUnderPortLock) {
  // Regression test for the receive-timeout race: a bounded receive whose
  // thread_block_timeout reported timed_out used to return nullopt without
  // re-taking the port lock, so a send landing at the timeout boundary
  // (its thread_wakeup_one finding no waiter — the receiver had already
  // been dequeued) was stranded until some LATER receive, which on an RPC
  // reply port means the next call collects the previous call's reply.
  //
  // The fixed path must re-lock and drain before giving up. That gives a
  // deterministic pre/post-fix discriminator: force the timeout by hand
  // (clear_wait with timed_out) while the test HOLDS the port lock — a
  // fixed receiver cannot return until the lock is released, the broken
  // one returns immediately.
  auto p = make_object<port>();
  std::atomic<bool> returned{false};
  std::atomic<bool> got{false};
  const std::uint64_t blocked_before = event_counters().blocks_suspended;
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(10s);  // long bound: only clear_wait can "time it out"
    got.store(r.has_value());
    returned.store(true);
  });
  while (event_counters().blocks_suspended == blocked_before) std::this_thread::yield();
  std::this_thread::sleep_for(20ms);  // let the receiver reach its cv wait
  p->lock();
  clear_wait(*rx, wait_result::timed_out);  // fire the timeout by hand
  std::this_thread::sleep_for(50ms);
  // Pre-fix this is already true: the receiver returned without ever
  // touching the port lock we hold.
  EXPECT_FALSE(returned.load());
  p->unlock();
  // Race the rescue drain against a boundary send: whichever order the
  // scheduler picks, the message must not be lost.
  EXPECT_EQ(p->send(message(42)), KERN_SUCCESS);
  rx->join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(got.load() || p->queued() == 1) << "boundary message was lost";
}

TEST(PortRace, DestroyDeactivatesAndDrainsInOneCriticalSection) {
  // Regression test for the destroy_port race: teardown used to drain the
  // queue under one lock hold and only then call deactivate(), which took
  // the lock again — two separate critical sections. A send landing
  // between them passes the active() check and enqueues into an
  // already-drained, dying port, stranding the message (and any carried
  // port right) in the dead queue forever. The unprotected gap is a few
  // instructions wide, far too narrow to hit reliably from another thread
  // (especially on small hosts), so pin the fix structurally instead:
  // "every send that returned KERN_SUCCESS is in the queue the drain
  // collects" holds exactly when deactivation and drain share ONE
  // critical section — i.e. teardown acquires the port lock exactly once.
  // The pre-fix code acquires it twice and fails this assertion.
  auto p = make_object<port>();
  EXPECT_EQ(p->send(message(7)), KERN_SUCCESS);  // non-empty: the drain is real
  // Lock statistics are per name: count the port class's acquisitions on
  // this thread's way, which no other thread of this test writes.
  const std::atomic<std::uint64_t>& acquisitions =
      p->lock_addr()->stat_class->ways[kmon::detail::way_index()].acquisitions;
  const std::uint64_t before = acquisitions.load();
  p->destroy_port();
  const std::uint64_t taken = acquisitions.load() - before;
  EXPECT_EQ(taken, 1u)
      << "destroy_port took the port lock " << taken
      << " times; deactivate+drain must happen under a single hold, or a "
         "concurrent send can enqueue into the drained, dying queue";
  EXPECT_EQ(p->queued(), 0u);
}

TEST(PortRace, DestroyVsConcurrentSendNeverStrandsMessages) {
  // End-to-end shape of the same property under real concurrency: senders
  // hammer a port while it is torn down. Whatever interleaving the
  // scheduler picks, once destroy_port returns no message may remain
  // queued and every carried reply right must be released. (The
  // deterministic pin for the pre-fix two-critical-section bug is the
  // test above; this one guards the full teardown path, and gives TSan
  // a real destroy-vs-send race to chew on.)
  using namespace std::chrono_literals;
  constexpr int iters = 50;
  int stranded = 0;
  std::uint64_t leaked = 0;
  for (int i = 0; i < iters; ++i) {
    auto p = make_object<port>();
    auto carried = make_object<port>("carried");
    // Park a hammering sender AND the destroyer on the port lock we hold,
    // then release it: both contend for every handoff inside the destroy
    // sequence instead of depending on scheduler luck to collide.
    p->lock();
    auto tx = kthread::spawn("tx", [&] {
      for (int k = 0; k < 20000; ++k) {
        message m(static_cast<std::uint32_t>(k));
        m.reply_to = carried;
        const kern_return_t kr = p->send(std::move(m));
        if (kr == KERN_TERMINATED) break;
      }
    });
    auto destroyer = kthread::spawn("destroyer", [&] { p->destroy_port(); });
    std::this_thread::sleep_for(1ms);  // both threads now spin on the lock
    p->unlock();
    tx->join();
    destroyer->join();
    stranded += p->queued() != 0 ? 1 : 0;
    leaked += static_cast<std::uint64_t>(carried->ref_count()) - 1;
  }
  EXPECT_EQ(stranded, 0) << "messages stranded in dead ports";
  EXPECT_EQ(leaked, 0u) << "carried rights leaked through teardown";
}

// --- the waiter count: send wakes only a registered receiver ---

TEST(PortWaiters, SendWithNoBlockedReceiverIssuesNoWakeup) {
  auto p = make_object<port>();
  // A receiver that timed out is no longer registered.
  EXPECT_FALSE(p->receive(1ms).has_value());
  const event_system_counters before = event_counters();
  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_EQ(p->send(message(i)), KERN_SUCCESS);
  for (std::uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(p->receive(1s).has_value());
  const event_system_counters after = event_counters();
  EXPECT_EQ(after.wakeups_no_waiter, before.wakeups_no_waiter);
  EXPECT_EQ(after.wakeups_delivered, before.wakeups_delivered);
}

TEST(PortWaiters, SendWakesABlockedReceiver) {
  auto p = make_object<port>();
  const std::uint64_t blocked_before = event_counters().blocks_suspended;
  std::atomic<bool> got{false};
  auto rx = kthread::spawn("rx", [&] {
    auto r = p->receive(10s);
    got.store(r.has_value() && r->op == 5);
  });
  while (event_counters().blocks_suspended == blocked_before) std::this_thread::yield();
  const std::uint64_t delivered_before = event_counters().wakeups_delivered;
  ASSERT_EQ(p->send(message(5)), KERN_SUCCESS);
  rx->join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(event_counters().wakeups_delivered, delivered_before + 1);
  // The woken receiver unregistered: the next send wakes nobody.
  const std::uint64_t no_waiter_before = event_counters().wakeups_no_waiter;
  ASSERT_EQ(p->send(message(6)), KERN_SUCCESS);
  EXPECT_EQ(event_counters().wakeups_no_waiter, no_waiter_before);
}

TEST(PortWaiters, TimedReceiversRacingSendersConserveMessages) {
  // Two receivers on 1 ms timeouts time out, re-register and wake while
  // two senders decide from the waiter count whether to wake anyone.
  // Every message must arrive exactly once and none may be left queued.
  constexpr int senders = 2;
  constexpr std::uint64_t per_sender = 20000;
  constexpr std::uint64_t total = senders * per_sender;
  auto p = make_object<port>();
  p->set_queue_limit(total);
  std::atomic<std::uint64_t> received{0};
  std::vector<std::uint64_t> seen[2];
  std::vector<std::unique_ptr<kthread>> threads;
  for (int r = 0; r < 2; ++r) {
    threads.push_back(kthread::spawn("rx" + std::to_string(r), [&, r] {
      while (received.load() < total) {
        auto m = p->receive(1ms);
        if (!m.has_value()) continue;
        seen[r].push_back(m->data[0]);
        received.fetch_add(1);
      }
    }));
  }
  for (int s = 0; s < senders; ++s) {
    threads.push_back(kthread::spawn("tx" + std::to_string(s), [&, s] {
      for (std::uint64_t i = 0; i < per_sender; ++i) {
        ASSERT_EQ(p->send(message(1, {static_cast<std::uint64_t>(s) * per_sender + i})),
                  KERN_SUCCESS);
        if (i % 64 == 0) std::this_thread::yield();  // let receivers drain and block
      }
    }));
  }
  for (auto& t : threads) t->join();
  std::vector<std::uint64_t> all(seen[0]);
  all.insert(all.end(), seen[1].begin(), seen[1].end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), total);
  for (std::uint64_t i = 0; i < total; ++i) ASSERT_EQ(all[i], i) << "lost or duplicated";
  EXPECT_EQ(p->queued(), 0u);
  EXPECT_EQ(p->sends_ok(), total);
}

TEST(PortWaiters, PipelinedRequestsNeverWaitOutATimeout) {
  // machcached's shape with long timeouts: one client keeps a window of
  // requests in flight to two workers and collects the replies on its own
  // port. Every send that skipped its wakeup must have had no receiver
  // to wake, so no receive may ever sit out its timeout while traffic
  // flows.
  constexpr int window = 16;
  constexpr int requests = 50000;
  auto service = make_object<port>("svc");
  auto reply = make_object<port>("reply");
  std::atomic<int> timeouts{0};
  std::vector<std::unique_ptr<kthread>> workers;
  for (int w = 0; w < 2; ++w) {
    workers.push_back(kthread::spawn("worker" + std::to_string(w), [&] {
      for (;;) {
        auto m = service->receive(2s);
        if (!m.has_value()) {
          service->lock();
          const bool dead = !service->active();
          service->unlock();
          if (dead) return;
          timeouts.fetch_add(1);
          continue;
        }
        ASSERT_EQ(m->reply_to->send(message(m->op, std::move(m->data))), KERN_SUCCESS);
      }
    }));
  }
  int sent = 0;
  int answered = 0;
  while (answered < requests) {
    while (sent < requests && sent - answered < window) {
      message m(static_cast<std::uint32_t>(sent++));
      m.reply_to = reply;
      ASSERT_EQ(service->send(std::move(m)), KERN_SUCCESS);
    }
    if (!reply->receive(2s).has_value()) {
      timeouts.fetch_add(1);
      break;
    }
    ++answered;
  }
  service->destroy_port();
  for (auto& w : workers) w->join();
  EXPECT_EQ(timeouts.load(), 0);
  EXPECT_EQ(reply->queued(), 0u);
}

TEST(PortWaiters, DestroyWakesEveryRegisteredReceiver) {
  constexpr int n = 4;
  auto p = make_object<port>();
  const std::uint64_t blocked_before = event_counters().blocks_suspended;
  std::atomic<int> woke_empty{0};
  std::vector<std::unique_ptr<kthread>> rxs;
  for (int i = 0; i < n; ++i) {
    rxs.push_back(kthread::spawn("rx" + std::to_string(i), [&] {
      if (!p->receive(30s).has_value()) woke_empty.fetch_add(1);
    }));
  }
  while (event_counters().blocks_suspended < blocked_before + n) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  p->destroy_port();
  for (auto& rx : rxs) rx->join();
  EXPECT_EQ(woke_empty.load(), n);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s) << "a receiver waited out its timeout";
}

// --- message bodies: inline up to message_body::inline_words ---

message_body words(std::uint64_t n, std::uint64_t base = 0) {
  message_body b;
  for (std::uint64_t i = 0; i < n; ++i) b.push_back(base + i);
  return b;
}

TEST(MessageBody, InlineUpToTenWordsSpillsAtEleven) {
  static_assert(message_body::inline_words == 10);
  message_body b = words(10);
  EXPECT_FALSE(b.spilled());
  b.push_back(10);
  EXPECT_TRUE(b.spilled());
  EXPECT_EQ(b, words(11));

  message_body r;
  r.reserve(10);
  EXPECT_FALSE(r.spilled());
  r.reserve(11);
  EXPECT_TRUE(r.spilled());
  EXPECT_TRUE(r.empty());
}

TEST(MessageBody, CopyMoveAndSelfAssignInlineAndHeap) {
  for (std::uint64_t n : {0u, 3u, 10u, 11u, 40u}) {
    SCOPED_TRACE(n);
    const message_body src = words(n, 100);
    const bool heap = n > message_body::inline_words;
    ASSERT_EQ(src.spilled(), heap);

    message_body copy(src);
    EXPECT_EQ(copy, src);
    if (heap) {
      EXPECT_NE(copy.data(), src.data());
    }

    message_body assigned = words(25, 7);  // a heap body overwritten
    assigned = src;
    EXPECT_EQ(assigned, src);
    message_body small = words(2, 7);  // an inline body overwritten
    small = src;
    EXPECT_EQ(small, src);

    message_body moved(std::move(copy));
    EXPECT_EQ(moved, src);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
    EXPECT_FALSE(copy.spilled());

    message_body target = words(30);
    target = std::move(moved);
    EXPECT_EQ(target, src);
    EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)

    message_body& alias = target;
    target = alias;
    EXPECT_EQ(target, src);
    target = std::move(alias);
    EXPECT_EQ(target, src);

    // A moved-from body is reusable.
    moved.push_back(1);
    EXPECT_EQ(moved, (std::vector<std::uint64_t>{1}));
  }
}

TEST(MessageBody, VectorSurface) {
  message_body b = {1, 2};
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_NE(b, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_NE(b, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_NE(b, std::vector<std::uint64_t>{});

  const std::vector<std::uint64_t> tail{7, 8, 9};
  b.insert(b.end(), tail.begin(), tail.end());
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 7, 8, 9}));
  const std::uint64_t mid[2] = {5, 6};
  b.insert(b.begin() + 2, mid, mid + 2);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 5, 6, 7, 8, 9}));

  b.resize(12);  // grows past the inline words; new words are zero
  EXPECT_TRUE(b.spilled());
  EXPECT_EQ(b[6], 9u);
  EXPECT_EQ(b[11], 0u);
  b.resize(1);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1}));
  b[0] = 4;
  EXPECT_EQ(*b.data(), 4u);

  b = {3, 4, 5};  // brace assignment replaces the words
  EXPECT_EQ(b, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(message_body(std::vector<std::uint64_t>{3, 4, 5}), b);
  EXPECT_EQ(message(1, std::vector<std::uint64_t>(12, 2)).data.size(), 12u);
}

TEST(MessageBody, HeapBodySurvivesThePort) {
  auto p = make_object<port>();
  ASSERT_EQ(p->send(message(3, words(64, 9))), KERN_SUCCESS);
  ASSERT_EQ(p->send(message(4, {1, 2})), KERN_SUCCESS);
  auto a = p->receive(1s);
  auto b = p->receive(1s);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_TRUE(a->data.spilled());
  EXPECT_EQ(a->data, words(64, 9));
  EXPECT_FALSE(b->data.spilled());
  EXPECT_EQ(b->data, (std::vector<std::uint64_t>{1, 2}));
}

// --- IPC space ---

TEST(IpcSpace, InsertLookupRemove) {
  ipc_space s;
  auto p = make_object<port>();
  port_name_t name = s.insert(p);
  EXPECT_EQ(p->ref_count(), 2);  // ours + table's
  auto found = s.lookup(name);
  EXPECT_EQ(found.get(), p.get());
  EXPECT_EQ(p->ref_count(), 3);
  found.reset();
  EXPECT_TRUE(s.remove(name));
  EXPECT_EQ(p->ref_count(), 1);
  EXPECT_FALSE(s.remove(name));
  EXPECT_FALSE(s.lookup(name));
}

TEST(IpcSpace, NamesAreUnique) {
  ipc_space s;
  auto a = s.insert(make_object<port>());
  auto b = s.insert(make_object<port>());
  EXPECT_NE(a, b);
  EXPECT_EQ(s.size(), 2u);
}

TEST(IpcSpace, LookupOfUnknownNameIsNull) {
  ipc_space s;
  EXPECT_FALSE(s.lookup(12345));
}

TEST(IpcSpace, TableHoldsPortAlive) {
  ipc_space s;
  port* raw = nullptr;
  port_name_t name;
  {
    auto p = make_object<port>();
    raw = p.get();
    name = s.insert(std::move(p));
  }
  // Only the table's reference remains; the port must still be usable.
  auto found = s.lookup(name);
  ASSERT_TRUE(found);
  EXPECT_EQ(found.get(), raw);
  EXPECT_EQ(found->send(message(1)), KERN_SUCCESS);
}

TEST(IpcSpace, SharedExternalLockConfiguration) {
  simple_lock_data_t external;
  simple_lock_init(&external, "shared");
  ipc_space s(&external);
  auto name = s.insert(make_object<port>());
  EXPECT_TRUE(s.lookup(name));
  // While we hold the external lock, a concurrent lookup must block —
  // probe via a thread that signals completion.
  simple_lock(&external);
  std::atomic<bool> done{false};
  auto t = kthread::spawn("lookup", [&] {
    s.lookup(name);
    done.store(true);
  });
  std::this_thread::sleep_for(10ms);
  EXPECT_FALSE(done.load());
  simple_unlock(&external);
  t->join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace mach
