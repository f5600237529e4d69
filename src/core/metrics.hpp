#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mcs {

/// One sample of the periodically sampled power/state trace (E2's figure).
struct TraceSample {
    SimTime time = 0;
    double total_power_w = 0.0;
    double workload_power_w = 0.0;  ///< busy cores
    double test_power_w = 0.0;      ///< testing cores
    double other_power_w = 0.0;     ///< idle + gated + NoC
    double tdp_w = 0.0;
    int cores_busy = 0;
    int cores_testing = 0;
    int cores_dark = 0;
    double max_temp_c = 0.0;
};

/// End-of-run summary; every experiment table is assembled from these.
struct RunMetrics {
    // --- run shape ---
    SimDuration sim_time = 0;
    std::size_t core_count = 0;

    // --- workload / throughput ---
    std::uint64_t apps_arrived = 0;
    std::uint64_t apps_completed = 0;
    std::uint64_t apps_rejected = 0;  ///< still queued at end
    std::uint64_t tasks_completed = 0;
    double throughput_tasks_per_s = 0.0;
    double throughput_apps_per_s = 0.0;
    /// Work throughput: busy cycles retired per second (the penalty metric:
    /// invariant to which tasks happen to finish near the horizon).
    double work_cycles_per_s = 0.0;
    RunningStats app_latency_ms;      ///< arrival -> completion
    RunningStats app_queue_wait_ms;   ///< arrival -> mapped
    // Per-QoS-class accounting (index = QosClass value; all zero when the
    // workload is best-effort only).
    std::vector<std::uint64_t> apps_completed_by_class;
    std::vector<std::uint64_t> deadlines_met_by_class;
    std::vector<std::uint64_t> deadlines_missed_by_class;
    double mean_chip_utilization = 0.0;  ///< avg busy fraction over cores
    /// Time-averaged fraction of cores that are power-gated (dark silicon).
    double mean_dark_fraction = 0.0;
    /// Time-averaged fraction of cores reserved by mapped applications.
    double mean_reserved_fraction = 0.0;
    /// Time-averaged fraction of cores running SBST sessions.
    double mean_testing_fraction = 0.0;

    // --- power ---
    double tdp_w = 0.0;
    double mean_power_w = 0.0;
    double max_power_w = 0.0;
    std::uint64_t power_samples = 0;
    std::uint64_t tdp_violations = 0;
    double tdp_violation_rate = 0.0;
    double worst_overshoot_w = 0.0;
    // Energy split by consumer (J).
    double energy_total_j = 0.0;
    double energy_busy_j = 0.0;
    double energy_test_j = 0.0;
    double energy_idle_j = 0.0;
    double energy_noc_j = 0.0;
    double test_energy_share = 0.0;  ///< energy_test / energy_total

    // --- testing ---
    std::uint64_t tests_completed = 0;
    std::uint64_t tests_aborted = 0;
    double tests_per_core_per_s = 0.0;
    /// Closed test-to-test gaps (per core, seconds).
    RunningStats test_interval_s;
    /// Worst open gap at the end of the run (censored intervals included).
    double max_open_test_gap_s = 0.0;
    /// Fraction of cores never tested during the run.
    double untested_core_fraction = 0.0;
    /// Tests per V/F level (index = level).
    std::vector<std::uint64_t> tests_per_vf_level;

    // --- faults ---
    std::uint64_t faults_injected = 0;
    std::uint64_t faults_detected = 0;
    std::uint64_t test_escapes = 0;
    std::uint64_t corrupted_tasks = 0;
    /// Applications that completed with at least one silently corrupted
    /// task or message (latent core/link faults).
    std::uint64_t corrupted_apps = 0;
    RunningStats detection_latency_s;
    SampleSet detection_latency_samples;

    // --- NoC online testing (extension; all zero when disabled) ---
    std::uint64_t link_tests_completed = 0;
    std::uint64_t link_faults_injected = 0;
    std::uint64_t link_faults_detected = 0;
    std::uint64_t link_test_escapes = 0;
    std::uint64_t corrupted_messages = 0;
    RunningStats link_detection_latency_s;
    double max_open_link_test_gap_s = 0.0;

    // --- mapping / NoC ---
    RunningStats mapping_dispersion_hops;
    double noc_mean_utilization = 0.0;
    double noc_peak_utilization = 0.0;
    std::uint64_t noc_messages = 0;

    // --- thermal / aging ---
    double peak_temp_c = 0.0;
    double mean_damage = 0.0;
    double max_damage = 0.0;
    /// Damage imbalance: (max - min) / mean (wear-leveling quality).
    double damage_imbalance = 0.0;

    // --- power manager ---
    std::uint64_t dvfs_throttle_steps = 0;
    std::uint64_t dvfs_boost_steps = 0;
};

}  // namespace mcs
