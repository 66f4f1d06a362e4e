// Tests for the machcached service: the item cache (complex-locked,
// striped, zone-backed, refcounted) and the IPC-fronted server, also
// under a burst of client traffic (svc/machcached.h; docs/MACHCACHED.md).
#include <gtest/gtest.h>

#include "sched/kthread.h"
#include "svc/machcached.h"
#include "tests/mc_load.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

mc_cache_config small_cache(int shards = 1, std::size_t max_items = 16) {
  mc_cache_config c;
  c.shards = shards;
  c.max_items = max_items;
  c.value_words = 4;
  return c;
}

TEST(McCache, SetGetDelRoundTrip) {
  mc_cache cache(small_cache());
  const std::uint64_t v[4] = {10, 20, 30, 40};
  EXPECT_EQ(cache.set(7, v, 4), KERN_SUCCESS);
  EXPECT_EQ(cache.size(), 1u);
  auto item = cache.get(7);
  ASSERT_TRUE(item);
  EXPECT_EQ(item->key(), 7u);
  ASSERT_EQ(item->size(), 4u);
  EXPECT_EQ(item->value()[0], 10u);
  EXPECT_EQ(item->value()[3], 40u);
  item.reset();
  EXPECT_TRUE(cache.del(7));
  EXPECT_FALSE(cache.get(7));
  EXPECT_FALSE(cache.del(7));
  EXPECT_EQ(cache.size(), 0u);
  const mc_cache_stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.deletes, 1u);
  EXPECT_EQ(s.delete_misses, 1u);
}

TEST(McCache, OverwriteReplacesItemAndReturnsOldBlock) {
  mc_cache cache(small_cache());
  const std::uint64_t v1[1] = {111};
  const std::uint64_t v2[1] = {222};
  EXPECT_EQ(cache.set(1, v1, 1), KERN_SUCCESS);
  auto old_item = cache.get(1);  // outstanding reader of the old value
  EXPECT_EQ(cache.set(1, v2, 1), KERN_SUCCESS);
  // The reader still sees the immutable old value; the table serves the new.
  EXPECT_EQ(old_item->value()[0], 111u);
  EXPECT_EQ(cache.get(1)->value()[0], 222u);
  old_item.reset();  // last reference: old block returns to the zone
  EXPECT_EQ(cache.value_zone().in_use(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(McCache, SetReportsShortageWhenZoneExhausted) {
  mc_cache cache(small_cache(1, /*max_items=*/2));
  const std::uint64_t v[1] = {1};
  EXPECT_EQ(cache.set(1, v, 1), KERN_SUCCESS);
  EXPECT_EQ(cache.set(2, v, 1), KERN_SUCCESS);
  EXPECT_EQ(cache.set(3, v, 1), KERN_RESOURCE_SHORTAGE);
  EXPECT_EQ(cache.stats().set_failures, 1u);
  // A delete frees a block; the SET can then land.
  EXPECT_TRUE(cache.del(1));
  EXPECT_EQ(cache.set(3, v, 1), KERN_SUCCESS);
}

TEST(McCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(mc_cache(small_cache(1)).shards(), 1);
  EXPECT_EQ(mc_cache(small_cache(3)).shards(), 4);
  EXPECT_EQ(mc_cache(small_cache(16)).shards(), 16);
}

TEST(McCache, QuiesceInvariantDetectsOutstandingReference) {
  mc_cache cache(small_cache(4));
  const std::uint64_t v[1] = {5};
  ASSERT_EQ(cache.set(1, v, 1), KERN_SUCCESS);
  std::string why;
  EXPECT_TRUE(cache.check_quiesced(&why)) << why;
  auto held = cache.get(1);  // second reference: not quiesced
  EXPECT_FALSE(cache.check_quiesced(&why));
  EXPECT_NE(why.find("ref_count"), std::string::npos);
  held.reset();
  EXPECT_TRUE(cache.check_quiesced(&why)) << why;
}

TEST(McServer, ServesGetSetDelOverIpc) {
  mc_cache cache(small_cache(2));
  machcached_config cfg;
  cfg.workers = 2;
  machcached_server server(cache, cfg);
  auto reply = make_object<port>("test-reply");

  auto call = [&](std::uint32_t op, std::vector<std::uint64_t> data) {
    message req(op, std::move(data));
    req.reply_to = reply;
    EXPECT_EQ(server.service().send(std::move(req)), KERN_SUCCESS);
    auto r = reply->receive(5s);
    EXPECT_TRUE(r.has_value());
    return r;
  };

  // SET key 42 (stamp 777 echoes back), then GET it, DEL it, GET misses.
  auto set_r = call(MC_SET, {42, 777, 5, 6});
  EXPECT_EQ(set_r->ret, KERN_SUCCESS);
  ASSERT_FALSE(set_r->data.empty());
  EXPECT_EQ(set_r->data[0], 777u);

  auto get_r = call(MC_GET, {42, 778});
  EXPECT_EQ(get_r->ret, KERN_SUCCESS);
  ASSERT_EQ(get_r->data.size(), 3u);  // stamp + 2 value words
  EXPECT_EQ(get_r->data[0], 778u);
  EXPECT_EQ(get_r->data[1], 5u);
  EXPECT_EQ(get_r->data[2], 6u);

  EXPECT_EQ(call(MC_DEL, {42, 779})->ret, KERN_SUCCESS);
  EXPECT_EQ(call(MC_GET, {42, 780})->ret, KERN_INVALID_NAME);
  EXPECT_EQ(call(999, {1, 2})->ret, KERN_INVALID_OP);

  // Malformed (too short) requests are answered, not dropped.
  message bad(MC_GET, {1});
  bad.reply_to = reply;
  EXPECT_EQ(server.service().send(std::move(bad)), KERN_SUCCESS);
  EXPECT_EQ(reply->receive(5s)->ret, KERN_FAILURE);

  EXPECT_EQ(server.served(), 6u);
  server.stop();
  EXPECT_EQ(server.service().send(message(MC_GET, {1, 2})), KERN_TERMINATED);
  server.stop();  // idempotent
}

TEST(McServer, SetRequestAndGetReplyStayInline) {
  // machcached's largest messages, a SET request (key, stamp, 8 value
  // words) and a GET hit reply (stamp, 8 value words), fit the inline
  // body: serving them allocates no message storage.
  mc_cache_config c = small_cache();
  c.value_words = 8;
  mc_cache cache(c);
  machcached_server server(cache);
  auto reply = make_object<port>("test-reply");

  message set(MC_SET, {42, 1});
  for (std::uint64_t i = 0; i < c.value_words; ++i) set.data.push_back(100 + i);
  EXPECT_EQ(set.data.size(), 10u);
  EXPECT_FALSE(set.data.spilled());
  set.reply_to = reply;
  ASSERT_EQ(server.service().send(std::move(set)), KERN_SUCCESS);
  auto set_r = reply->receive(5s);
  ASSERT_TRUE(set_r.has_value());
  EXPECT_EQ(set_r->ret, KERN_SUCCESS);
  EXPECT_FALSE(set_r->data.spilled());

  message get(MC_GET, {42, 2});
  get.reply_to = reply;
  ASSERT_EQ(server.service().send(std::move(get)), KERN_SUCCESS);
  auto get_r = reply->receive(5s);
  ASSERT_TRUE(get_r.has_value());
  EXPECT_EQ(get_r->ret, KERN_SUCCESS);
  EXPECT_EQ(get_r->data,
            (std::vector<std::uint64_t>{2, 100, 101, 102, 103, 104, 105, 106, 107}));
  EXPECT_FALSE(get_r->data.spilled());
  server.stop();
}

TEST(McLoad, ShortBurstConservesMessagesAndObjects) {
  const std::uint64_t live_before = kobject::live_objects();
  testing::burst_spec spec;
  spec.connections = 3;
  spec.duration_ms = 60;
  spec.read_pct = 80;
  spec.keyspace = 64;
  spec.cache = small_cache(4, /*max_items=*/128);
  testing::burst_result r = testing::run_burst(spec);
  EXPECT_GT(r.ops, 0u);
  // Every completed op is a request the server served, and every accepted
  // request was answered and collected (the drain phase waits them out) —
  // the conservation property the port-receive timeout fix protects.
  EXPECT_EQ(r.ops, r.served);
  EXPECT_EQ(r.latency.count(), r.ops);
  EXPECT_TRUE(r.quiesce_error.empty()) << r.quiesce_error;
  EXPECT_EQ(kobject::live_objects(), live_before);  // cache+server+ports all died
}

}  // namespace
}  // namespace mach
