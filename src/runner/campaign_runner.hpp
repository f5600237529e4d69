#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "runner/sweep_spec.hpp"
#include "util/stats.hpp"

namespace mcs {

/// Outcome of one simulation replica. `cell` / `replica` locate it in the
/// campaign grid; a replica whose construction or run threw is recorded
/// with ok == false and the exception text, and does not disturb any other
/// replica.
struct ReplicaResult {
    std::size_t cell = 0;
    int replica = 0;
    std::uint64_t seed = 0;
    bool ok = false;
    std::string error;
    RunMetrics metrics{};
};

/// All results of a campaign, indexed cell-major: replica r of cell c is
/// replicas[c * spec.replicas + r]. The layout (and every value in it) is
/// independent of the job count the campaign ran with.
struct CampaignResult {
    CampaignSpec spec;
    std::vector<ReplicaResult> replicas;
    double wall_seconds = 0.0;  ///< not part of the deterministic output

    std::size_t cell_count() const { return spec.cell_count(); }
    /// The replicas of one cell, in replicate order.
    std::span<const ReplicaResult> cell(std::size_t c) const;
    std::size_t ok_count() const;
    std::size_t failed_count() const;

    /// Mean/stddev of `metric` over the *successful* replicas of cell `c`.
    RunningStats cell_stats(
        std::size_t c,
        const std::function<double(const RunMetrics&)>& metric) const;
    double cell_mean(
        std::size_t c,
        const std::function<double(const RunMetrics&)>& metric) const {
        return cell_stats(c, metric).mean();
    }

    /// Index of the first cell whose point contains every given (key,
    /// value) pair. Throws RequireError if no cell matches.
    std::size_t find_cell(
        std::span<const std::pair<std::string, std::string>> match) const;
};

/// Parallel campaign executor. Replicas are independent, so they run on a
/// TaskPool (util/thread_pool.hpp) whose workers take them from one queue;
/// each result is committed to its grid slot by index, never by completion
/// order, which keeps the aggregate bit-identical for any `jobs`.
class CampaignRunner {
public:
    /// Runs one replica config for `seconds` of simulated time. The
    /// default is run_system (scenario/scenario_runner.hpp), which honours
    /// scenario= and restore=; tests inject failing or instrumented
    /// replicas here.
    using ReplicaFn =
        std::function<RunMetrics(const Config& cfg, double seconds)>;
    /// Called after each replica finishes (any thread, serialized). The
    /// first exception it throws is rethrown by run() once every replica
    /// has finished.
    using ProgressFn =
        std::function<void(std::size_t done, std::size_t total)>;

    explicit CampaignRunner(CampaignSpec spec);

    void set_replica_fn(ReplicaFn fn);
    void set_progress(ProgressFn fn);

    /// Executes the whole grid on min(`jobs`, replica count) worker
    /// threads (`jobs` 0 = spec.default_jobs, which itself defaults to the
    /// hardware concurrency) and returns the aggregated result. A replica
    /// that throws is recorded as failed; run() itself only throws on
    /// spec-level errors.
    CampaignResult run(int jobs = 0);

    const CampaignSpec& spec() const { return spec_; }

private:
    CampaignSpec spec_;
    ReplicaFn replica_fn_;
    ProgressFn progress_;
};

}  // namespace mcs
