// Quickstart: simulate an 8x8 16nm manycore running a dynamic workload with
// power-aware online testing, and print the headline numbers.
//
// Usage: quickstart [width=8] [height=8] [seconds=10, or the captured
//                   horizon with restore=] [occupancy=0.6]
//                   [seed=42] [scheduler=power-aware|periodic|greedy|
//                   deadline|none] [scenario=<spec.json>]
//                   [restore=<snapshot.json>] [any other
//                   core/config_bridge.hpp key]

#include <cstdio>
#include <memory>

#include "scenario/scenario_runner.hpp"
#include "util/config.hpp"

int run(int argc, char** argv) {
    const mcs::Config args = mcs::Config::from_args(
        std::span<const char* const>(argv + 1, static_cast<std::size_t>(
                                                   argc - 1)));
    // The bridge rejects unknown keys and values (scheduler=typo fails)
    // and turns occupancy into a Poisson arrival rate; make_system also
    // attaches scenario= and restores restore=.
    const std::unique_ptr<mcs::ManycoreSystem> sys = mcs::make_system(args);
    const mcs::SystemConfig& cfg = sys->config();
    const double occupancy = args.get_double("occupancy", 0.6);
    const mcs::SimDuration horizon = mcs::run_horizon(args, *sys, 10.0);

    std::printf("manycore online-test quickstart\n");
    std::printf("  chip        : %dx%d @ %s, TDP-capped\n", cfg.width,
                cfg.height, mcs::to_string(cfg.node));
    std::printf("  scheduler   : %s\n", mcs::to_string(cfg.scheduler));
    std::printf("  occupancy   : %.2f (%.1f apps/s)\n", occupancy,
                cfg.workload.arrival_rate_hz);
    std::printf("  horizon     : %.1f s\n\n", mcs::to_seconds(horizon));

    const mcs::RunMetrics m = sys->run(horizon);

    std::printf("results\n");
    std::printf("  TDP                  : %.1f W\n", m.tdp_w);
    std::printf("  mean / max power     : %.1f / %.1f W\n", m.mean_power_w,
                m.max_power_w);
    std::printf("  TDP violation rate   : %.4f%%\n",
                m.tdp_violation_rate * 100.0);
    std::printf("  apps completed       : %llu / %llu\n",
                static_cast<unsigned long long>(m.apps_completed),
                static_cast<unsigned long long>(m.apps_arrived));
    std::printf("  task throughput      : %.1f tasks/s\n",
                m.throughput_tasks_per_s);
    std::printf("  work throughput      : %.3e cycles/s\n",
                m.work_cycles_per_s);
    std::printf("  chip utilization     : %.1f%% busy, %.1f%% reserved, "
                "%.1f%% dark\n",
                m.mean_chip_utilization * 100.0,
                m.mean_reserved_fraction * 100.0,
                m.mean_dark_fraction * 100.0);
    std::printf("  tests completed      : %llu (%.2f per core per s)\n",
                static_cast<unsigned long long>(m.tests_completed),
                m.tests_per_core_per_s);
    std::printf("  mean test interval   : %.3f s\n", m.test_interval_s.mean());
    std::printf("  test energy share    : %.2f%%\n",
                m.test_energy_share * 100.0);
    std::printf("  untested cores       : %.1f%% (max open gap %.2f s)\n",
                m.untested_core_fraction * 100.0, m.max_open_test_gap_s);
    std::printf("  tests aborted        : %llu\n",
                static_cast<unsigned long long>(m.tests_aborted));
    std::printf("  mean queue wait      : %.2f ms\n",
                m.app_queue_wait_ms.mean());
    std::printf("  peak temperature     : %.1f C\n", m.peak_temp_c);
    return 0;
}

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "quickstart: error: %s\n", e.what());
        return 1;
    }
}
