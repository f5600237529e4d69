#include "util/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

namespace mcs {
namespace {

TEST(TaskPool, RunsSubmittedTasks) {
    TaskPool pool(3);
    std::atomic<int> sum{0};
    for (int i = 1; i <= 100; ++i) {
        ASSERT_TRUE(pool.submit([&sum, i] { sum.fetch_add(i); }));
    }
    pool.wait_idle();
    EXPECT_EQ(sum.load(), 5050);
    EXPECT_EQ(pool.completed_tasks(), 100u);
    EXPECT_EQ(pool.failed_tasks(), 0u);
    EXPECT_EQ(pool.worker_count(), 3);
}

TEST(TaskPool, ShutdownWhileBusyDrainsQueuedWork) {
    // One worker, one long task holding it busy, then a pile of queued
    // tasks: shutdown() must reject NEW work but complete everything
    // already accepted (the daemon's SIGTERM drain contract).
    TaskPool pool(1);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> done{0};
    ASSERT_TRUE(pool.submit([&] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
        done.fetch_add(1);
    }));
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(pool.submit([&done] { done.fetch_add(1); }));
    }
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        {
            std::lock_guard<std::mutex> lock(m);
            release = true;
        }
        cv.notify_one();
    });
    pool.shutdown();  // blocks until the drain is complete
    releaser.join();
    EXPECT_EQ(done.load(), 11);
    EXPECT_FALSE(pool.accepting());
    EXPECT_FALSE(pool.submit([] {}));  // post-shutdown work is rejected
}

TEST(TaskPool, ShutdownIsIdempotent) {
    TaskPool pool(2);
    ASSERT_TRUE(pool.submit([] {}));
    pool.shutdown();
    pool.shutdown();  // second call must be a no-op, not a crash/hang
    EXPECT_EQ(pool.completed_tasks(), 1u);
}

TEST(TaskPool, TaskExceptionsAreIsolated) {
    // A throwing task must not kill its worker or poison later tasks.
    TaskPool pool(1);
    std::atomic<int> ran{0};
    ASSERT_TRUE(pool.submit([] { throw std::runtime_error("boom"); }));
    ASSERT_TRUE(pool.submit([&ran] { ran.fetch_add(1); }));
    ASSERT_TRUE(pool.submit([] { throw 42; }));  // non-std exceptions too
    ASSERT_TRUE(pool.submit([&ran] { ran.fetch_add(1); }));
    pool.wait_idle();
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(pool.failed_tasks(), 2u);
    EXPECT_EQ(pool.completed_tasks(), 2u);
}

TEST(TaskPool, BoundedQueueRejectsOverflow) {
    // One worker parked on a gate; capacity 2 means two queued tasks are
    // admitted and the third submit is refused (the HTTP 429 path).
    TaskPool pool(1, 2);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    ASSERT_TRUE(pool.submit([&] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return release; });
    }));
    // The busy task may still be in the queue for an instant; wait until
    // the worker picked it up so capacity accounting is deterministic.
    while (pool.queue_depth() != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(pool.submit([] {}));
    EXPECT_TRUE(pool.submit([] {}));
    EXPECT_FALSE(pool.submit([] {}));  // queue full -> shed load
    EXPECT_EQ(pool.queue_depth(), 2u);
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_one();
    pool.shutdown();
    EXPECT_EQ(pool.completed_tasks(), 3u);
}

TEST(TaskPool, WorkerCountDefaultsToHardware) {
    TaskPool pool(0);
    EXPECT_EQ(pool.worker_count(), hardware_jobs());
    TaskPool pinned(-3);
    EXPECT_EQ(pinned.worker_count(), hardware_jobs());
}

}  // namespace
}  // namespace mcs
