#include "runner/campaign_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <utility>

#include "scenario/scenario_runner.hpp"
#include "sim/time.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace mcs {

std::span<const ReplicaResult> CampaignResult::cell(std::size_t c) const {
    MCS_REQUIRE(c < cell_count(), "cell index out of range");
    const auto per_cell = static_cast<std::size_t>(spec.replicas);
    return std::span<const ReplicaResult>(replicas).subspan(c * per_cell,
                                                            per_cell);
}

std::size_t CampaignResult::ok_count() const {
    std::size_t n = 0;
    for (const ReplicaResult& r : replicas) {
        n += r.ok ? 1 : 0;
    }
    return n;
}

std::size_t CampaignResult::failed_count() const {
    return replicas.size() - ok_count();
}

RunningStats CampaignResult::cell_stats(
    std::size_t c,
    const std::function<double(const RunMetrics&)>& metric) const {
    RunningStats stats;
    for (const ReplicaResult& r : cell(c)) {
        if (r.ok) {
            stats.add(metric(r.metrics));
        }
    }
    return stats;
}

std::size_t CampaignResult::find_cell(
    std::span<const std::pair<std::string, std::string>> match) const {
    for (std::size_t c = 0; c < cell_count(); ++c) {
        const auto point = spec.cell_point(c);
        bool all = true;
        for (const auto& want : match) {
            bool found = false;
            for (const auto& have : point) {
                if (have == want) {
                    found = true;
                    break;
                }
            }
            all = all && found;
        }
        if (all) {
            return c;
        }
    }
    MCS_REQUIRE(false, "no campaign cell matches the requested point");
    return 0;
}

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {
    replica_fn_ = [](const Config& cfg, double seconds) {
        return run_system(cfg, from_seconds(seconds));
    };
}

void CampaignRunner::set_replica_fn(ReplicaFn fn) {
    replica_fn_ = std::move(fn);
}

void CampaignRunner::set_progress(ProgressFn fn) {
    progress_ = std::move(fn);
}

CampaignResult CampaignRunner::run(int jobs) {
    if (jobs <= 0) {
        jobs = spec_.default_jobs;
    }
    if (jobs <= 0) {
        jobs = hardware_jobs();
    }

    CampaignResult result;
    result.spec = spec_;
    result.replicas.resize(spec_.replica_count());

    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    std::exception_ptr progress_error;  // first throw; under progress_mutex
    const auto start = std::chrono::steady_clock::now();
    const auto run_replica = [&](std::size_t i) {
        const auto per_cell = static_cast<std::size_t>(spec_.replicas);
        ReplicaResult r;
        r.cell = i / per_cell;
        r.replica = static_cast<int>(i % per_cell);
        r.seed = spec_.replica_seed(r.replica);
        try {
            const Config cfg = spec_.replica_config(r.cell, r.replica);
            r.metrics = replica_fn_(cfg, spec_.seconds);
            r.ok = true;
        } catch (const std::exception& e) {
            r.error = e.what();
        } catch (...) {
            r.error = "unknown error";
        }
        // Committed by replica index: slot i is this replica's forever,
        // regardless of which worker ran it or when it finished.
        result.replicas[i] = std::move(r);
        const std::size_t finished = done.fetch_add(1) + 1;
        if (progress_) {
            const std::lock_guard<std::mutex> lock(progress_mutex);
            try {
                progress_(finished, result.replicas.size());
            } catch (...) {
                if (!progress_error) {
                    progress_error = std::current_exception();
                }
            }
        }
    };
    {
        // Workers take replicas from one queue in index order; the pool's
        // destructor drains the queue and joins them. An open pool with an
        // unbounded queue accepts every task.
        TaskPool pool(static_cast<int>(std::clamp<std::size_t>(
            result.replicas.size(), 1, static_cast<std::size_t>(jobs))));
        for (std::size_t i = 0; i < result.replicas.size(); ++i) {
            pool.submit([&run_replica, i] { run_replica(i); });
        }
    }
    if (progress_error) {
        std::rethrow_exception(progress_error);
    }

    result.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

}  // namespace mcs
