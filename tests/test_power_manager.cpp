#include "power/power_manager.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace mcs {
namespace {

class PowerManagerTest : public ::testing::Test {
protected:
    PowerManagerTest()
        : chip_(4, 4, TechNode::nm16),
          model_(chip_.tech(), chip_.vf_table()),
          budget_(chip_.tdp_w()) {}

    PowerManager make(PowerManagerParams p = {}) {
        return PowerManager(chip_, model_, budget_, registry_, p);
    }

    /// One control epoch on the measurement the platform would pass: the
    /// chip's core power at the leakage reference temperature.
    void epoch(PowerManager& mgr, SimTime now) {
        mgr.control_epoch(now, model_.chip_power_w(chip_, {}), {});
    }

    void make_busy(std::size_t n, SimTime now = 0) {
        for (std::size_t i = 0; i < n; ++i) {
            chip_.core(static_cast<CoreId>(i)).start_task(now);
        }
    }

    Chip chip_;
    PowerModel model_;
    PowerBudget budget_;
    telemetry::MetricsRegistry registry_;
};

TEST_F(PowerManagerTest, MeasuresChipPower) {
    auto mgr = make();
    epoch(mgr, 0);
    EXPECT_NEAR(mgr.measured_power_w(), model_.chip_power_w(chip_, {}), 1e-9);
    EXPECT_EQ(budget_.samples(), 1u);
}

TEST_F(PowerManagerTest, ExtraPowerIncluded) {
    auto mgr = make();
    mgr.control_epoch(0, model_.chip_power_w(chip_, {}) + 5.0, {});
    EXPECT_NEAR(mgr.measured_power_w(),
                model_.chip_power_w(chip_, {}) + 5.0, 1e-9);
}

TEST_F(PowerManagerTest, ThrottlesWhenOverBudget) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(16);  // 16 busy cores at top level >> TDP at 16nm
    for (int e = 0; e < 50; ++e) {
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
    }
    EXPECT_GT(mgr.throttle_steps(), 0u);
    // Power must have been brought to (or below) the setpoint.
    EXPECT_LE(mgr.measured_power_w(), mgr.setpoint_w() * 1.02);
    // At least some cores got pushed off the top level.
    int below_top = 0;
    for (const Core& c : chip_.cores()) {
        if (c.vf_level() < chip_.max_vf_level()) {
            ++below_top;
        }
    }
    EXPECT_GT(below_top, 0);
}

TEST_F(PowerManagerTest, BoostsWhenSlackAndNeverOvershoots) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(4);
    // Push the busy cores to the bottom level first.
    for (std::size_t i = 0; i < 4; ++i) {
        chip_.core(static_cast<CoreId>(i)).set_vf_level(0, 0);
    }
    for (int e = 0; e < 100; ++e) {
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
    }
    EXPECT_GT(mgr.boost_steps(), 0u);
    // 4 busy cores fit comfortably: they should reach the top level.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(chip_.core(static_cast<CoreId>(i)).vf_level(),
                  chip_.max_vf_level());
    }
    EXPECT_LE(mgr.measured_power_w(), budget_.tdp_w());
}

TEST_F(PowerManagerTest, VfListenerInvoked) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(16);
    int calls = 0;
    mgr.set_vf_change_listener([&](CoreId, int old_level, int new_level) {
        EXPECT_NE(old_level, new_level);
        ++calls;
    });
    for (int e = 0; e < 20; ++e) {
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
    }
    EXPECT_GT(calls, 0);
}

TEST_F(PowerManagerTest, GrantTaskLevelRespectsHeadroom) {
    auto mgr = make();
    epoch(mgr, 0);  // establish the ledger from an idle chip
    // Plenty of headroom with everything idle: first grant is near the top.
    const int first = mgr.grant_task_level(0, 45.0);
    EXPECT_GE(first, chip_.max_vf_level() - 1);
    // Grants accumulate in the ledger; eventually only the bottom levels
    // fit. (Level 1 busy power is below idle-at-top power, so grants can
    // legitimately bottom out at 1 rather than 0.)
    int lowest = first;
    for (CoreId id = 1; id < 16; ++id) {
        lowest = std::min(lowest, mgr.grant_task_level(id, 45.0));
    }
    EXPECT_LE(lowest, 1);  // 16 busy cores cannot all fit at high levels
    EXPECT_GT(mgr.committed_power_w(), mgr.setpoint_w() * 0.9);
}

TEST_F(PowerManagerTest, LedgerResetsAtEpoch) {
    auto mgr = make();
    epoch(mgr, 0);
    mgr.reserve_power(5.0);
    const double committed = mgr.committed_power_w();
    EXPECT_GT(committed, mgr.measured_power_w() + 4.9);
    epoch(mgr, 100 * kMicrosecond);
    EXPECT_NEAR(mgr.committed_power_w(), mgr.measured_power_w(), 1e-9);
}

TEST_F(PowerManagerTest, HeadroomNeverNegative) {
    auto mgr = make();
    epoch(mgr, 0);
    mgr.reserve_power(1000.0);
    EXPECT_DOUBLE_EQ(mgr.headroom_w(), 0.0);
    EXPECT_THROW(mgr.reserve_power(-1.0), RequireError);
}

TEST_F(PowerManagerTest, PowerGatingAfterDelay) {
    PowerManagerParams p;
    p.gate_delay = kMillisecond;
    auto mgr = make(p);
    epoch(mgr, 0);
    EXPECT_EQ(mgr.cores_gated(), 0u);
    epoch(mgr, 2 * kMillisecond);
    EXPECT_EQ(mgr.cores_gated(), chip_.core_count());
    for (const Core& c : chip_.cores()) {
        EXPECT_EQ(c.state(), CoreState::Dark);
    }
}

TEST_F(PowerManagerTest, ReservedCoresNotGated) {
    PowerManagerParams p;
    p.gate_delay = kMillisecond;
    auto mgr = make(p);
    chip_.core(3).set_reserved(true);
    epoch(mgr, 0);
    epoch(mgr, 2 * kMillisecond);
    EXPECT_EQ(chip_.core(3).state(), CoreState::Idle);
    EXPECT_EQ(mgr.cores_gated(), chip_.core_count() - 1);
}

TEST_F(PowerManagerTest, TouchDefersGating) {
    PowerManagerParams p;
    p.gate_delay = kMillisecond;
    auto mgr = make(p);
    epoch(mgr, 0);
    mgr.touch(900 * kMicrosecond, 5);
    epoch(mgr, kMillisecond);
    EXPECT_EQ(chip_.core(5).state(), CoreState::Idle);  // touched recently
    EXPECT_EQ(chip_.core(6).state(), CoreState::Dark);
}

TEST_F(PowerManagerTest, WakeCore) {
    PowerManagerParams p;
    p.gate_delay = kMillisecond;
    auto mgr = make(p);
    epoch(mgr, 0);
    epoch(mgr, 2 * kMillisecond);
    ASSERT_EQ(chip_.core(0).state(), CoreState::Dark);
    const double committed_before = mgr.committed_power_w();
    mgr.wake_core(3 * kMillisecond, 0);
    EXPECT_EQ(chip_.core(0).state(), CoreState::Idle);
    EXPECT_EQ(chip_.core(0).vf_level(), 0);  // wakes frugal
    EXPECT_GT(mgr.committed_power_w(), committed_before);  // charged
    // Waking a non-dark core is a programming error.
    EXPECT_THROW(mgr.wake_core(3 * kMillisecond, 0), RequireError);
}

TEST_F(PowerManagerTest, GatingDisabledKeepsCoresIdle) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    epoch(mgr, 0);
    epoch(mgr, seconds(1));
    for (const Core& c : chip_.cores()) {
        EXPECT_EQ(c.state(), CoreState::Idle);
    }
}

TEST_F(PowerManagerTest, TestingCoresNotTouchedByActuation) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(15);
    chip_.core(15).start_test(0);
    const int test_level = chip_.core(15).vf_level();
    for (int e = 0; e < 50; ++e) {
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
    }
    EXPECT_EQ(chip_.core(15).vf_level(), test_level);
}

TEST_F(PowerManagerTest, BangBangStepsWholeChip) {
    PowerManagerParams p;
    p.mode = CappingMode::BangBang;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(16);  // well over TDP at top level
    epoch(mgr, 100 * kMicrosecond);
    // Every busy core stepped down by exactly one level in one epoch.
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(chip_.core(static_cast<CoreId>(i)).vf_level(),
                  chip_.max_vf_level() - 1);
    }
    EXPECT_EQ(mgr.throttle_steps(), 16u);
}

TEST_F(PowerManagerTest, BangBangGrantsMaxUnconditionally) {
    PowerManagerParams p;
    p.mode = CappingMode::BangBang;
    auto mgr = make(p);
    epoch(mgr, 0);
    mgr.reserve_power(1e6);  // ledger ignored in naive mode
    EXPECT_EQ(mgr.grant_task_level(0, 45.0), chip_.max_vf_level());
}

TEST_F(PowerManagerTest, PriorityLookupShieldsImportantCores) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(16);
    // Cores 0..3 run "hard-RT" work; the rest are best effort.
    mgr.set_priority_lookup(
        [](CoreId id) { return id < 4 ? 2 : 0; });
    for (int e = 0; e < 50; ++e) {
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
    }
    // The chip is far over budget, but the protected cores must keep a
    // strictly higher level than the average victim.
    double protected_sum = 0.0, rest_sum = 0.0;
    for (std::size_t i = 0; i < 16; ++i) {
        (i < 4 ? protected_sum : rest_sum) +=
            chip_.core(static_cast<CoreId>(i)).vf_level();
    }
    EXPECT_GT(protected_sum / 4.0, rest_sum / 12.0);
}

TEST_F(PowerManagerTest, PriorityLookupOncePerBusyCore) {
    PowerManagerParams p;
    p.enable_power_gating = false;
    auto mgr = make(p);
    make_busy(12);  // cores 12..15 stay idle
    std::vector<std::uint64_t> calls(chip_.core_count(), 0);
    mgr.set_priority_lookup([&calls](CoreId id) {
        ++calls[id];
        return id % 3 == 0 ? 1 : 0;
    });
    const telemetry::Counter& actuations =
        registry_.counter("power.capping_actuations");
    for (int e = 0; e < 50; ++e) {
        const std::uint64_t before = actuations.value();
        const std::vector<std::uint64_t> calls_before = calls;
        epoch(mgr, static_cast<SimTime>(e + 1) * 100 * kMicrosecond);
        const std::uint64_t acted = actuations.value() - before;
        // One lookup per busy core in an epoch that actuates, none in an
        // epoch inside the deadband, and none for an idle core.
        for (CoreId id = 0; id < chip_.core_count(); ++id) {
            EXPECT_EQ(calls[id] - calls_before[id], id < 12 ? acted : 0u)
                << "epoch " << e << ", core " << id;
        }
    }
    EXPECT_GT(actuations.value(), 0u);
    EXPECT_GT(mgr.throttle_steps(), 0u);
}

TEST_F(PowerManagerTest, InvalidParamsThrow) {
    PowerManagerParams p;
    p.setpoint_fraction = 0.0;
    EXPECT_THROW(make(p), RequireError);
    p = PowerManagerParams{};
    p.boost_fraction = 0.0;
    EXPECT_THROW(make(p), RequireError);
    p = PowerManagerParams{};
    p.deadband = -0.1;
    EXPECT_THROW(make(p), RequireError);
}

}  // namespace
}  // namespace mcs
