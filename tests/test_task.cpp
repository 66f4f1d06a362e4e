// Tests for tasks and threads: the two-lock layout (section 5), thread
// lifecycle, and deactivation semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "kern/task.h"
#include "sched/kthread.h"
#include "tests/test_util.h"

namespace mach {
namespace {

using namespace std::chrono_literals;

TEST(Task, SuspendResumeCounts) {
  auto t = make_object<task>();
  EXPECT_EQ(t->suspend_count(), 0);
  EXPECT_EQ(t->suspend(), KERN_SUCCESS);
  EXPECT_EQ(t->suspend(), KERN_SUCCESS);
  EXPECT_EQ(t->suspend_count(), 2);
  EXPECT_EQ(t->resume(), KERN_SUCCESS);
  EXPECT_EQ(t->resume(), KERN_SUCCESS);
  EXPECT_EQ(t->resume(), KERN_FAILURE);  // below zero
}

TEST(Task, OpsFailAfterDeactivation) {
  auto t = make_object<task>();
  t->deactivate();
  EXPECT_EQ(t->suspend(), KERN_TERMINATED);
  EXPECT_EQ(t->resume(), KERN_TERMINATED);
}

TEST(Task, CreateThreadLinksBothWays) {
  auto t = make_object<task>();
  auto th = t->create_thread();
  ASSERT_TRUE(th);
  EXPECT_EQ(t->thread_count(), 1u);
  EXPECT_EQ(th->owner().get(), t.get());
  // Task holds one ref to the thread; we hold one.
  EXPECT_EQ(th->ref_count(), 2);
  // Break the task<->thread reference cycle, as thread termination does.
  EXPECT_TRUE(t->remove_thread(th.get()));
}

TEST(Task, ThreadHoldsTaskAlive) {
  ref_ptr<thread_obj> th;
  {
    auto t = make_object<task>();
    th = t->create_thread();
  }
  // Task kept alive by the thread's counted back-pointer.
  auto owner = th->owner();
  ASSERT_TRUE(owner);
  EXPECT_EQ(owner->thread_count(), 1u);
  EXPECT_TRUE(owner->remove_thread(th.get()));
}

TEST(Task, RemoveThreadReleasesTaskRef) {
  auto t = make_object<task>();
  auto th = t->create_thread();
  EXPECT_TRUE(t->remove_thread(th.get()));
  EXPECT_EQ(t->thread_count(), 0u);
  EXPECT_EQ(th->ref_count(), 1);
  EXPECT_FALSE(t->remove_thread(th.get()));
}

TEST(Task, CreateThreadOnDeadTaskFails) {
  auto t = make_object<task>();
  t->deactivate();
  EXPECT_FALSE(t->create_thread());
}

TEST(Task, ThreadsSnapshotClonesRefs) {
  auto t = make_object<task>();
  auto a = t->create_thread();
  auto b = t->create_thread();
  auto snap = t->threads();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(a->ref_count(), 3);  // ours + task's + snapshot's
  snap.clear();
  EXPECT_EQ(a->ref_count(), 2);
  EXPECT_TRUE(t->remove_thread(a.get()));
  EXPECT_TRUE(t->remove_thread(b.get()));
}

TEST(Task, ShutdownBodyDeactivatesThreads) {
  auto t = make_object<task>();
  auto th = t->create_thread();
  t->deactivate();
  t->shutdown_body();
  EXPECT_EQ(t->thread_count(), 0u);
  th->lock();
  EXPECT_FALSE(th->active());
  th->unlock();
  EXPECT_EQ(th->suspend(), KERN_TERMINATED);
}

TEST(Task, ThreadSuspendResume) {
  auto t = make_object<task>();
  auto th = t->create_thread();
  EXPECT_EQ(th->suspend(), KERN_SUCCESS);
  EXPECT_EQ(th->suspend_count(), 1);
  EXPECT_EQ(th->resume(), KERN_SUCCESS);
  EXPECT_EQ(th->resume(), KERN_FAILURE);
  EXPECT_TRUE(t->remove_thread(th.get()));
}

TEST(Task, VmMapSlotHoldsReference) {
  auto t = make_object<task>();
  auto some_obj = make_object<task>("stand-in-map");
  t->set_vm_map(ref_ptr<kobject>::clone_from(some_obj.get()));
  EXPECT_EQ(some_obj->ref_count(), 2);
  auto got = t->vm_map_ref();
  EXPECT_EQ(got.get(), some_obj.get());
  t->set_vm_map({});
  got.reset();
  EXPECT_EQ(some_obj->ref_count(), 1);
}

// The section 5 claim behind E12: with split locks, holding the task lock
// does not block IPC translations; with a shared lock it does.
TEST(Task, SplitLocksAllowParallelTranslation) {
  auto t = make_object<task>("split-task", /*split_ipc_lock=*/true);
  auto name = t->space().insert(make_object<port>());
  t->lock();  // long task operation in progress
  std::atomic<bool> done{false};
  auto worker = kthread::spawn("translator", [&] {
    EXPECT_TRUE(t->space().lookup(name));
    done.store(true);
  });
  worker->join();  // completes even while the task lock is held
  EXPECT_TRUE(done.load());
  t->unlock();
}

TEST(Task, SharedLockSerializesTranslation) {
  auto t = make_object<task>("coarse-task", /*split_ipc_lock=*/false);
  auto name = t->space().insert(make_object<port>());
  t->lock();
  std::atomic<bool> done{false};
  auto worker = kthread::spawn("translator", [&] {
    EXPECT_TRUE(t->space().lookup(name));
    done.store(true);
  });
  std::this_thread::sleep_for(15ms);
  EXPECT_FALSE(done.load()) << "translation proceeded despite shared lock held";
  t->unlock();
  worker->join();
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace mach
