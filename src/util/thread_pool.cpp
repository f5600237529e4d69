#include "util/thread_pool.hpp"

#include <thread>

namespace mcs {

int hardware_jobs() noexcept {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<int>(n);
}

// ---------------------------------------------------------------- TaskPool

TaskPool::TaskPool(int workers, std::size_t max_queue)
    : max_queue_(max_queue) {
    const int count = workers <= 0 ? hardware_jobs() : workers;
    threads_.reserve(static_cast<std::size_t>(count));
    for (int t = 0; t < count; ++t) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

TaskPool::~TaskPool() { shutdown(); }

bool TaskPool::submit(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!accepting_ ||
            (max_queue_ != 0 && queue_.size() >= max_queue_)) {
            return false;
        }
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
    return true;
}

void TaskPool::shutdown() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        accepting_ = false;
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& thread : threads_) {
        if (thread.joinable()) {
            thread.join();
        }
    }
}

void TaskPool::wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [this] { return queue_.empty() && in_flight_ == 0; });
}

bool TaskPool::accepting() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return accepting_;
}

std::size_t TaskPool::queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

std::uint64_t TaskPool::failed_tasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

std::uint64_t TaskPool::completed_tasks() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

void TaskPool::worker_loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            // stop_ is set and the drain is complete for this worker.
            return;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
        lock.unlock();
        bool threw = false;
        try {
            task();
        } catch (...) {
            // Task failures are contained: the worker survives and the
            // failure is observable via failed_tasks() (the daemon maps it
            // to an error response at a higher layer).
            threw = true;
        }
        lock.lock();
        --in_flight_;
        threw ? ++failed_ : ++completed_;
        if (queue_.empty() && in_flight_ == 0) {
            idle_cv_.notify_all();
        }
    }
}

}  // namespace mcs
