#include "core/system.hpp"

#include <numeric>

#include <gtest/gtest.h>

#include "core/system_observer.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

/// Small, fast configuration used by most integration tests: 4x4 chip,
/// moderate load, 2-second horizon (runs in tens of milliseconds).
SystemConfig small_config(std::uint64_t seed = 42) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.seed = seed;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(0.5, cfg.workload.graphs, capacity);
    return cfg;
}

/// Keeps every trace sample of a run.
struct SampleLog final : SystemObserver {
    std::vector<TraceSample> samples;
    void on_trace_sample(const TraceSample& s) override {
        samples.push_back(s);
    }
};

TEST(System, AppsFlowThrough) {
    ManycoreSystem sys(small_config());
    const RunMetrics m = sys.run(2 * kSecond);
    EXPECT_GT(m.apps_arrived, 50u);
    EXPECT_GT(m.apps_completed, m.apps_arrived * 9 / 10);
    EXPECT_GT(m.tasks_completed, m.apps_completed);
    EXPECT_GT(m.throughput_tasks_per_s, 0.0);
    EXPECT_GT(m.work_cycles_per_s, 0.0);
    EXPECT_EQ(m.sim_time, 2 * kSecond);
    EXPECT_EQ(m.core_count, 16u);
}

TEST(System, RunTwiceRejected) {
    ManycoreSystem sys(small_config());
    sys.run(100 * kMillisecond);
    EXPECT_THROW(sys.run(100 * kMillisecond), RequireError);
    EXPECT_THROW(ManycoreSystem(small_config()).run(0), RequireError);
}

TEST(System, DeterministicBySeed) {
    auto run = [](std::uint64_t seed) {
        ManycoreSystem sys(small_config(seed));
        return sys.run(kSecond);
    };
    const RunMetrics a = run(7);
    const RunMetrics b = run(7);
    const RunMetrics c = run(8);
    EXPECT_EQ(a.apps_completed, b.apps_completed);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.tests_completed, b.tests_completed);
    EXPECT_DOUBLE_EQ(a.mean_power_w, b.mean_power_w);
    EXPECT_DOUBLE_EQ(a.energy_total_j, b.energy_total_j);
    // Different seed gives a different trajectory.
    EXPECT_NE(a.tasks_completed, c.tasks_completed);
}

TEST(System, PowerAwareTestingHonorsTdp) {
    SystemConfig cfg = small_config();
    cfg.scheduler = SchedulerKind::PowerAware;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(2 * kSecond);
    EXPECT_GT(m.tests_completed, 0u);
    EXPECT_LE(m.max_power_w, m.tdp_w * 1.02);
    EXPECT_EQ(m.tdp_violations, 0u);
}

TEST(System, NullSchedulerNeverTests) {
    SystemConfig cfg = small_config();
    cfg.scheduler = SchedulerKind::None;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    EXPECT_EQ(m.tests_completed, 0u);
    EXPECT_EQ(m.tests_aborted, 0u);
    EXPECT_DOUBLE_EQ(m.test_energy_share, 0.0);
    EXPECT_DOUBLE_EQ(m.untested_core_fraction, 1.0);
}

TEST(System, ThroughputPenaltyOfTestingIsSmall) {
    SystemConfig base = small_config();
    base.scheduler = SchedulerKind::None;
    const RunMetrics none = ManycoreSystem(base).run(3 * kSecond);
    SystemConfig pa = small_config();
    pa.scheduler = SchedulerKind::PowerAware;
    const RunMetrics tested = ManycoreSystem(pa).run(3 * kSecond);
    EXPECT_GT(tested.tests_completed, 0u);
    const double penalty =
        (none.work_cycles_per_s - tested.work_cycles_per_s) /
        none.work_cycles_per_s;
    EXPECT_LT(penalty, 0.03);  // headline claim band (paper: < 1%)
}

TEST(System, EveryCoreGetsTestedUnderPowerAware) {
    SystemConfig cfg = small_config();
    cfg.scheduler = SchedulerKind::PowerAware;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(4 * kSecond);
    EXPECT_DOUBLE_EQ(m.untested_core_fraction, 0.0);
    EXPECT_GT(m.test_interval_s.count(), 0u);
    EXPECT_LT(m.max_open_test_gap_s, 4.0);
}

TEST(System, VfRotationCoversLevels) {
    SystemConfig cfg = small_config();
    cfg.scheduler = SchedulerKind::PowerAware;
    cfg.power_aware.vf_policy = TestVfPolicy::RotateAll;
    // Light load and a long horizon: the rotation only reaches the bottom
    // level on each core's 5th test, and sessions there run ~12x longer
    // than at the top level, needing an uncontended window to *complete*
    // (the histogram counts completions).
    cfg.workload.arrival_rate_hz /= 3.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(16 * kSecond);
    ASSERT_EQ(m.tests_per_vf_level.size(), sys.chip().vf_level_count());
    int levels_used = 0;
    for (auto count : m.tests_per_vf_level) {
        levels_used += count > 0 ? 1 : 0;
    }
    EXPECT_EQ(levels_used, static_cast<int>(m.tests_per_vf_level.size()));
    // The histogram counts completed suites per level.
    const std::uint64_t histogram_total = std::accumulate(
        m.tests_per_vf_level.begin(), m.tests_per_vf_level.end(), 0ull);
    EXPECT_EQ(histogram_total, m.tests_completed);
}

TEST(System, MaxOnlyPolicyUsesTopLevelOnly) {
    SystemConfig cfg = small_config();
    cfg.power_aware.vf_policy = TestVfPolicy::MaxOnly;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(2 * kSecond);
    for (std::size_t l = 0; l + 1 < m.tests_per_vf_level.size(); ++l) {
        EXPECT_EQ(m.tests_per_vf_level[l], 0u);
    }
    EXPECT_GT(m.tests_per_vf_level.back(), 0u);
}

TEST(System, FaultsDetectedEndToEnd) {
    SystemConfig cfg = small_config();
    cfg.enable_fault_injection = true;
    cfg.faults.base_rate_per_core_s = 0.2;  // aggressive for a short run
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(4 * kSecond);
    EXPECT_GT(m.faults_injected, 0u);
    EXPECT_GT(m.faults_detected, 0u);
    EXPECT_GT(m.detection_latency_s.count(), 0u);
    EXPECT_GT(m.detection_latency_s.mean(), 0.0);
    // Detected cores are decommissioned.
    std::size_t faulty = 0;
    for (const Core& c : sys.chip().cores()) {
        faulty += c.state() == CoreState::Faulty ? 1 : 0;
    }
    EXPECT_EQ(faulty, m.faults_detected);
}

TEST(System, NoTestingMeansNoDetection) {
    SystemConfig cfg = small_config();
    cfg.scheduler = SchedulerKind::None;
    cfg.enable_fault_injection = true;
    // Aggressive sim-scale rate: most cores are dark (immune) at this load,
    // so the effective exposure is only a few core-seconds.
    cfg.faults.base_rate_per_core_s = 2.0;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(3 * kSecond);
    EXPECT_GT(m.faults_injected, 0u);
    EXPECT_EQ(m.faults_detected, 0u);
    EXPECT_GT(m.corrupted_tasks, 0u);  // silent corruption accumulates
}

TEST(System, EnergyAccountingConsistent) {
    ManycoreSystem sys(small_config());
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.energy_total_j, 0.0);
    EXPECT_NEAR(m.energy_total_j,
                m.energy_busy_j + m.energy_test_j + m.energy_idle_j +
                    m.energy_noc_j,
                1e-9);
    // Mean power and accumulated energy must agree to first order.
    EXPECT_NEAR(m.energy_total_j, m.mean_power_w * to_seconds(m.sim_time),
                m.energy_total_j * 0.05);
}

TEST(System, ObserverReceivesTraceSamples) {
    SystemConfig cfg = small_config();
    cfg.trace_epoch = 10 * kMillisecond;
    ManycoreSystem sys(cfg);
    SampleLog log;
    sys.add_observer(&log);
    sys.run(kSecond);
    const std::vector<TraceSample>& samples = log.samples;
    ASSERT_EQ(samples.size(), 100u);
    for (const auto& s : samples) {
        EXPECT_GT(s.total_power_w, 0.0);
        EXPECT_NEAR(s.total_power_w,
                    s.workload_power_w + s.test_power_w + s.other_power_w,
                    1e-9);
        EXPECT_DOUBLE_EQ(s.tdp_w, sys.budget().tdp_w());
        EXPECT_GE(s.max_temp_c, 0.0);
    }
}

TEST(System, NocCarriesTraffic) {
    ManycoreSystem sys(small_config());
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.noc_messages, 0u);
    EXPECT_GT(m.energy_noc_j, 0.0);
    EXPECT_GE(m.noc_peak_utilization, m.noc_mean_utilization);
}

TEST(System, TdpScaleShrinksBudget) {
    SystemConfig cfg = small_config();
    cfg.tdp_scale = 0.5;
    ManycoreSystem sys(cfg);
    SystemConfig ref = small_config();
    ManycoreSystem refsys(ref);
    EXPECT_NEAR(sys.budget().tdp_w(), refsys.budget().tdp_w() * 0.5, 1e-9);
}

TEST(System, DarkSiliconAppears) {
    // At low load most cores must be power-gated most of the time.
    SystemConfig cfg = small_config();
    cfg.workload.arrival_rate_hz = 5.0;
    ManycoreSystem sys(cfg);
    SampleLog log;
    sys.add_observer(&log);
    sys.run(2 * kSecond);
    const std::vector<TraceSample>& samples = log.samples;
    double dark = 0.0;
    for (const auto& s : samples) {
        dark += s.cores_dark;
    }
    dark /= static_cast<double>(samples.size());
    EXPECT_GT(dark, 4.0);  // of 16 cores
}

TEST(System, AgingAccumulatesAndIsImbalanced) {
    ManycoreSystem sys(small_config());
    const RunMetrics m = sys.run(2 * kSecond);
    EXPECT_GT(m.mean_damage, 0.0);
    EXPECT_GE(m.max_damage, m.mean_damage);
    EXPECT_GE(m.damage_imbalance, 0.0);
}

TEST(System, QueueWaitTrackedUnderOverload) {
    SystemConfig cfg = small_config();
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(3.0, cfg.workload.graphs, capacity);  // overload
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.apps_rejected, 0u);  // backlog at horizon
    EXPECT_GT(m.app_queue_wait_ms.max(), 0.0);
}

class SystemMapperSweep : public ::testing::TestWithParam<MapperKind> {};

TEST_P(SystemMapperSweep, AllMappersRunCleanly) {
    SystemConfig cfg = small_config();
    cfg.mapper = GetParam();
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(kSecond);
    EXPECT_GT(m.apps_completed, 0u);
    EXPECT_GT(m.mapping_dispersion_hops.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Mappers, SystemMapperSweep,
    ::testing::Values(MapperKind::TestAware, MapperKind::ThermalAware,
                      MapperKind::UtilizationOriented,
                      MapperKind::Contiguous, MapperKind::Random,
                      MapperKind::FirstFit));

class SystemSchedulerSweep : public ::testing::TestWithParam<SchedulerKind> {
};

TEST_P(SystemSchedulerSweep, AllSchedulersRunCleanly) {
    SystemConfig cfg = small_config();
    cfg.scheduler = GetParam();
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(2 * kSecond);
    EXPECT_GT(m.apps_completed, 0u);
    if (GetParam() != SchedulerKind::None) {
        EXPECT_GT(m.tests_completed, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, SystemSchedulerSweep,
                         ::testing::Values(SchedulerKind::PowerAware,
                                           SchedulerKind::Periodic,
                                           SchedulerKind::Greedy,
                                           SchedulerKind::None));

TEST(System, SegmentedTestsCompleteAndResume) {
    SystemConfig cfg = small_config(31);
    cfg.segmented_tests = true;
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(3 * kSecond);
    EXPECT_GT(m.tests_completed, 0u);
    EXPECT_DOUBLE_EQ(m.untested_core_fraction, 0.0);
    // The 4x4 chip's absolute PID margin is thin (~0.2 W), so allow a
    // stray marginal sample but no systematic violation.
    EXPECT_LE(m.tdp_violation_rate, 0.001);
    EXPECT_LT(m.worst_overshoot_w, 0.5);
}

TEST(System, SegmentedTestsDeterministic) {
    auto run = [] {
        SystemConfig cfg = small_config(33);
        cfg.segmented_tests = true;
        ManycoreSystem sys(cfg);
        return sys.run(2 * kSecond);
    };
    const RunMetrics a = run();
    const RunMetrics b = run();
    EXPECT_EQ(a.tests_completed, b.tests_completed);
    EXPECT_EQ(a.tests_aborted, b.tests_aborted);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
}

TEST(System, AtomicTestsNeverAborted) {
    SystemConfig cfg = small_config(35);
    cfg.abort_tests_for_mapping = false;
    const double capacity = 16.0 * technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(1.0, cfg.workload.graphs, capacity);
    ManycoreSystem sys(cfg);
    const RunMetrics m = sys.run(3 * kSecond);
    EXPECT_EQ(m.tests_aborted, 0u);
    EXPECT_GT(m.tests_completed, 0u);
    EXPECT_GT(m.apps_completed, 0u);
}

TEST(System, KindNames) {
    EXPECT_STREQ(to_string(SchedulerKind::PowerAware), "power-aware");
    EXPECT_STREQ(to_string(SchedulerKind::None), "none");
    EXPECT_STREQ(to_string(MapperKind::TestAware), "test-aware (TAUM)");
    EXPECT_STREQ(to_string(MapperKind::Random), "random");
}

TEST(RateForOccupancy, ScalesLinearly) {
    TaskGraphGenParams graphs;
    const double r1 = rate_for_occupancy(0.3, graphs, 1e11);
    const double r2 = rate_for_occupancy(0.6, graphs, 1e11);
    EXPECT_NEAR(r2 / r1, 2.0, 1e-9);
    EXPECT_THROW(rate_for_occupancy(0.0, graphs, 1e11), RequireError);
    EXPECT_THROW(rate_for_occupancy(0.5, graphs, 0.0), RequireError);
}

}  // namespace
}  // namespace mcs
