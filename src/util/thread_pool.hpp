#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs {

/// Number of hardware threads, never less than 1 (the fallback when the
/// runtime cannot tell).
int hardware_jobs() noexcept;

/// Long-lived worker pool with a bounded FIFO queue and an explicit
/// shutdown/drain protocol, the repo's one thread pool: the serve daemon's
/// workers run what-if queries on it, and the campaign runner submits one
/// task per replica and lets the destructor's drain join them. Workers
/// take tasks in submission order; which worker runs a task, and when, is
/// not specified, so callers that need deterministic output commit results
/// by their own index.
///
/// Admission: submit() enqueues a task unless the queue is at capacity or
/// shutdown has begun; both rejections are reported by the return value so
/// the caller can shed load explicitly (the HTTP 429 path) instead of
/// blocking. A task that throws is contained: the exception is swallowed,
/// counted in failed_tasks(), and the worker keeps serving.
///
/// Shutdown: shutdown() (idempotent, also run by the destructor) closes
/// admission, lets the workers finish every already-queued task, and joins
/// them -- the "graceful drain" a daemon performs on SIGTERM. Work submitted
/// concurrently with shutdown either lands before the gate closes (and is
/// executed) or is rejected; nothing is silently dropped.
class TaskPool {
public:
    /// `workers` <= 0 selects hardware_jobs(). `max_queue` == 0 means an
    /// unbounded queue (no admission control).
    explicit TaskPool(int workers, std::size_t max_queue = 0);
    ~TaskPool();
    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    /// Enqueues `task`; returns false (without running it) if the queue is
    /// full or the pool is shutting down.
    bool submit(std::function<void()> task);

    /// Rejects new work, finishes everything already queued, joins the
    /// workers. Safe to call more than once and from any thread except a
    /// worker's own task.
    void shutdown();

    /// Blocks until the queue is empty and every in-flight task finished
    /// (the pool keeps accepting work; use shutdown() for a final drain).
    void wait_idle();

    bool accepting() const;
    std::size_t queue_depth() const;
    int worker_count() const noexcept {
        return static_cast<int>(threads_.size());
    }
    /// Tasks whose invocation threw (the exception was contained).
    std::uint64_t failed_tasks() const;
    std::uint64_t completed_tasks() const;

private:
    void worker_loop();

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;   ///< workers wait for tasks/shutdown
    std::condition_variable idle_cv_;   ///< wait_idle/drain wait for quiesce
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    std::size_t max_queue_ = 0;
    std::size_t in_flight_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t completed_ = 0;
    bool accepting_ = true;
    bool stop_ = false;  ///< workers exit once the queue is empty
};

}  // namespace mcs
