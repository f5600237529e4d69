#include "app/workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/require.hpp"

namespace mcs {

TaskGraphGenerator::TaskGraphGenerator(TaskGraphGenParams params)
    : params_(params) {
    MCS_REQUIRE(params_.min_tasks >= 1, "graphs need at least one task");
    MCS_REQUIRE(params_.max_tasks >= params_.min_tasks,
                "task count range must be ordered");
    MCS_REQUIRE(params_.min_cycles >= 1, "task cycles must be positive");
    MCS_REQUIRE(params_.max_cycles >= params_.min_cycles,
                "cycle range must be ordered");
    MCS_REQUIRE(params_.max_edge_bytes >= params_.min_edge_bytes,
                "edge byte range must be ordered");
    MCS_REQUIRE(params_.max_fanin >= 1, "max fan-in must be at least 1");
}

TaskGraph TaskGraphGenerator::generate(Rng& rng) const {
    const int n = static_cast<int>(
        rng.uniform_int(params_.min_tasks, params_.max_tasks));

    // Log-uniform cycle draw.
    const double log_lo = std::log(static_cast<double>(params_.min_cycles));
    const double log_hi = std::log(static_cast<double>(params_.max_cycles));
    auto draw_cycles = [&] {
        return static_cast<std::uint64_t>(
            std::exp(rng.uniform(log_lo, log_hi)));
    };
    auto draw_bytes = [&] {
        return static_cast<std::uint64_t>(rng.uniform_int(
            static_cast<std::int64_t>(params_.min_edge_bytes),
            static_cast<std::int64_t>(params_.max_edge_bytes)));
    };

    std::vector<Task> tasks(static_cast<std::size_t>(n));
    for (auto& t : tasks) {
        t.cycles = draw_cycles();
    }

    // Layered DAG, 2..4 layers with tasks spread evenly (wide, shallow
    // graphs: most tasks run in parallel, as in the streaming workloads the
    // paper family maps). Layer k holds the ids [first(k), first(k + 1)):
    // n / depth tasks, plus one for each of the first n % depth layers.
    // Each task in layer k >= 1 connects from 1..max_fanin distinct tasks
    // of layer k-1 (edges stored on the predecessor side).
    const int depth = n == 1 ? 1
                             : static_cast<int>(rng.uniform_int(
                                   2, std::min<std::int64_t>(4, n)));
    const auto first = [&](int k) {
        return static_cast<TaskIndex>(k * (n / depth) + std::min(k, n % depth));
    };
    std::vector<TaskIndex> pool;
    for (int k = 1; k < depth; ++k) {
        const TaskIndex prev = first(k - 1);
        const TaskIndex prev_width = first(k) - prev;
        for (TaskIndex t = first(k); t < first(k + 1); ++t) {
            const int fanin = static_cast<int>(rng.uniform_int(
                1, std::min<std::int64_t>(params_.max_fanin, prev_width)));
            // Sample distinct predecessors by shuffling the previous
            // layer's ids, in order.
            pool.resize(prev_width);
            std::iota(pool.begin(), pool.end(), prev);
            rng.shuffle(std::span<TaskIndex>(pool));
            for (int i = 0; i < fanin; ++i) {
                tasks[pool[static_cast<std::size_t>(i)]].successors.push_back(
                    TaskEdge{t, draw_bytes()});
            }
        }
    }
    return TaskGraph(std::move(tasks));
}

double TaskGraphGenerator::estimate_mean_app_cycles(
    const TaskGraphGenParams& params, std::uint64_t seed, int samples) {
    MCS_REQUIRE(samples > 0, "need at least one sample");
    TaskGraphGenerator gen(params);
    Rng rng(seed);
    double sum = 0.0;
    for (int i = 0; i < samples; ++i) {
        sum += static_cast<double>(gen.generate(rng).total_cycles());
    }
    return sum / static_cast<double>(samples);
}

const char* to_string(QosClass qos) {
    switch (qos) {
        case QosClass::BestEffort: return "best-effort";
        case QosClass::SoftRealTime: return "soft-RT";
        case QosClass::HardRealTime: return "hard-RT";
    }
    return "?";
}

WorkloadGenerator::WorkloadGenerator(WorkloadParams params, std::uint64_t seed)
    : params_(std::move(params)), rng_(seed) {
    MCS_REQUIRE(params_.arrival_rate_hz > 0.0,
                "arrival rate must be positive");
    MCS_REQUIRE(params_.best_effort_weight >= 0.0 &&
                    params_.soft_rt_weight >= 0.0 &&
                    params_.hard_rt_weight >= 0.0,
                "QoS weights must be non-negative");
    MCS_REQUIRE(params_.best_effort_weight + params_.soft_rt_weight +
                        params_.hard_rt_weight > 0.0,
                "at least one QoS weight must be positive");
    MCS_REQUIRE(params_.hard_deadline_factor > 0.0 &&
                    params_.soft_deadline_factor > 0.0,
                "deadline factors must be positive");
    MCS_REQUIRE(params_.reference_freq_hz > 0.0,
                "reference frequency must be positive");
}

std::vector<ApplicationSpec> WorkloadGenerator::generate(SimTime horizon) {
    TaskGraphGenerator gen(params_.graphs);
    Rng graph_rng = rng_.split();
    std::vector<ApplicationSpec> out;
    const double mean_gap_s = 1.0 / params_.arrival_rate_hz;
    double t_s = 0.0;
    while (true) {
        t_s += rng_.exponential(mean_gap_s);
        const SimTime arrival = from_seconds(t_s);
        if (arrival >= horizon) {
            break;
        }
        TaskGraph graph =
            params_.graph_library.empty()
                ? gen.generate(graph_rng)
                : params_.graph_library[graph_rng.index(
                      params_.graph_library.size())];

        // Draw the QoS class and derive the deadline from the graph's
        // ideal makespan.
        const double weights[] = {params_.best_effort_weight,
                                  params_.soft_rt_weight,
                                  params_.hard_rt_weight};
        const auto qos = static_cast<QosClass>(rng_.categorical(weights));
        SimDuration deadline = 0;
        if (qos != QosClass::BestEffort) {
            const double ideal_s =
                static_cast<double>(graph.critical_path_cycles()) /
                params_.reference_freq_hz;
            const double factor = qos == QosClass::HardRealTime
                                      ? params_.hard_deadline_factor
                                      : params_.soft_deadline_factor;
            deadline = from_seconds(ideal_s * factor);
        }
        out.push_back(ApplicationSpec{next_id_++, arrival, qos, deadline,
                                      std::move(graph)});
    }
    return out;
}

double WorkloadGenerator::offered_utilization(const WorkloadParams& params,
                                              double chip_cycles_per_s) {
    MCS_REQUIRE(chip_cycles_per_s > 0.0, "chip capacity must be positive");
    const double mean_cycles =
        TaskGraphGenerator::estimate_mean_app_cycles(params.graphs);
    return params.arrival_rate_hz * mean_cycles / chip_cycles_per_s;
}

double WorkloadGenerator::rate_for_utilization(
    double target_utilization, const TaskGraphGenParams& graphs,
    double chip_cycles_per_s) {
    MCS_REQUIRE(target_utilization > 0.0, "target utilization must be > 0");
    const double mean_cycles =
        TaskGraphGenerator::estimate_mean_app_cycles(graphs);
    return target_utilization * chip_cycles_per_s / mean_cycles;
}

}  // namespace mcs
